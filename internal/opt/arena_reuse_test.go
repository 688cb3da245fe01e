package opt

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

// arenaReuseRun is one engine-owning entry point configuration of the
// use-after-release oracle.
type arenaReuseRun struct {
	name string
	run  func(cat *catalog.Catalog, q *query.SPJ, dm *stats.Dist) (*Result, error)
	// check validates the first Result beyond success (the rung reached,
	// the tier served), so the oracle is known to cover that path.
	check func(*Result) error
}

func arenaReuseRuns() []arenaReuseRun {
	bg := context.Background()
	return []arenaReuseRun{
		{name: "C/sequential", run: func(cat *catalog.Catalog, q *query.SPJ, dm *stats.Dist) (*Result, error) {
			return Run(bg, cat, q, Options{}, Config{Coster: StaticParams{Mem: dm}})
		}},
		{name: "C/tier-auto", run: func(cat *catalog.Catalog, q *query.SPJ, dm *stats.Dist) (*Result, error) {
			return Run(bg, cat, q, Options{Tier: TierAuto, Enumeration: EnumConnected}, Config{Coster: StaticParams{Mem: dm}})
		}, check: func(r *Result) error {
			if r.Tier == "" {
				return fmt.Errorf("tier controller did not run")
			}
			return nil
		}},
		{name: "D/annotated", run: func(cat *catalog.Catalog, q *query.SPJ, dm *stats.Dist) (*Result, error) {
			return Run(bg, cat, q, Options{}, Config{Coster: MultiParams{Mem: dm}})
		}, check: func(r *Result) error {
			annotated := 0
			plan.Walk(r.Plan, func(n plan.Node) {
				if j, ok := n.(*plan.Join); ok && j.SizeDist != nil {
					annotated++
				}
			})
			if annotated == 0 {
				return fmt.Errorf("no join carries a SizeDist")
			}
			return nil
		}},
		{name: "C/budget-greedy", run: func(cat *catalog.Catalog, q *query.SPJ, dm *stats.Dist) (*Result, error) {
			return Run(bg, cat, q, Options{Budget: Budget{MaxCostEvals: 1}}, Config{Coster: StaticParams{Mem: dm}})
		}, check: func(r *Result) error {
			if !r.Degraded || r.Rung != RungGreedy {
				return fmt.Errorf("degraded=%v rung=%q, want the greedy rung", r.Degraded, r.Rung)
			}
			return nil
		}},
		{name: "A", run: func(cat *catalog.Catalog, q *query.SPJ, dm *stats.Dist) (*Result, error) {
			return Run(bg, cat, q, Options{}, Config{Coster: StaticParams{Mem: dm}, Pool: &Pool{}})
		}},
		{name: "B", run: func(cat *catalog.Catalog, q *query.SPJ, dm *stats.Dist) (*Result, error) {
			return Run(bg, cat, q, Options{}, Config{Coster: StaticParams{Mem: dm}, Pool: &Pool{TopC: DefaultTopC}})
		}},
		{name: "aggregate", run: func(cat *catalog.Catalog, q *query.SPJ, dm *stats.Dist) (*Result, error) {
			gq := *q
			gq.GroupBy = &query.ColumnRef{Table: q.Tables[0], Column: "fk"}
			gq.OrderBy = nil
			return Run(bg, cat, &gq, Options{}, Config{Coster: StaticParams{Mem: dm}, Pool: &Pool{TopC: DefaultTopC}})
		}},
	}
}

// planFingerprint renders everything a kept plan is read for: its key, its
// EXPLAIN text, the bits of its expected cost under dm, and every join's
// size-distribution annotation.
func planFingerprint(p plan.Node, dm *stats.Dist) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s%016x\n", p.Key(), plan.Explain(p), math.Float64bits(plan.ExpCost(p, dm)))
	plan.Walk(p, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && j.SizeDist != nil {
			fmt.Fprintf(&b, "%s: %v\n", j.Key(), j.SizeDist)
		}
	})
	return b.String()
}

// TestDetachedPlansSurviveArenaReuse is the use-after-release oracle for
// pooled arenas: the Result of a first run per entry point is kept while 64
// different queries run through the same entry points (so through reset
// and reused arenas, concurrently in half of the rounds), and afterwards
// every kept plan must read exactly as it did when it was returned. A plan
// still pointing into its session's slabs would see them cleared and
// overwritten.
func TestDetachedPlansSurviveArenaReuse(t *testing.T) {
	runs := arenaReuseRuns()
	shapes := []workload.Topology{workload.Chain, workload.Star, workload.Cycle, workload.Clique}
	instance := func(i int) (*catalog.Catalog, *query.SPJ, *stats.Dist) {
		seed := int64(7300 + i)
		cat, q := randInstance(t, seed, 4+i%5, shapes[i%len(shapes)], i%3 == 0)
		return cat, q, randMemDist3(seed)
	}

	type kept struct {
		res  *Result
		dm   *stats.Dist
		want string
	}
	first := make([]kept, len(runs))
	for ri, r := range runs {
		cat, q, dm := instance(ri)
		res, err := r.run(cat, q, dm)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if r.check != nil {
			if err := r.check(res); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
		}
		first[ri] = kept{res: res, dm: dm, want: planFingerprint(res.Plan, dm)}
	}

	const queries = 64
	for round := 0; round < queries/len(runs); round++ {
		var wg sync.WaitGroup
		errs := make([]error, len(runs))
		for ri, r := range runs {
			i := len(runs) + round*len(runs) + ri
			cat, q, dm := instance(i)
			call := func() {
				if _, err := r.run(cat, q, dm); err != nil {
					errs[ri] = fmt.Errorf("%s on query %d: %w", r.name, i, err)
				}
			}
			if round%2 == 1 {
				wg.Add(1)
				go func() { defer wg.Done(); call() }()
			} else {
				call()
			}
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	for ri, k := range first {
		if got := planFingerprint(k.res.Plan, k.dm); got != k.want {
			t.Errorf("%s: kept plan changed after arena reuse\nwas:\n%s\nnow:\n%s", runs[ri].name, k.want, got)
		}
	}
}
