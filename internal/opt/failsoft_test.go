package opt

// Fail-soft behavior of the engine: budget exhaustion, deadline expiry,
// injected coster panics, and NaN/Inf cost poisoning must all degrade down
// the anytime ladder to a valid plan (or a typed error) — never a panic,
// never a garbage plan. The faults are driven by internal/faultinject.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

// failsoftConfigs enumerates the strategy × space grid the fault matrix
// runs over. Each entry builds a fresh engine for the instance.
func failsoftConfigs(dm *stats.Dist) map[string]Config {
	chain := stats.MustNewChain(dm.Support(), [][]float64{
		{0.8, 0.2, 0}, {0.1, 0.8, 0.1}, {0, 0.2, 0.8},
	})
	return map[string]Config{
		"fixed/left-deep":   {Coster: FixedParams{Mem: dm.Mean()}},
		"static/left-deep":  {Coster: StaticParams{Mem: dm}},
		"static/bushy":      {Space: SpaceBushy, Coster: StaticParams{Mem: dm}},
		"phased/pipelined":  {Space: SpacePipelined, Coster: PhasedParams{Phases: []*stats.Dist{dm}}},
		"markov/left-deep":  {Coster: MarkovParams{Chain: chain, Initial: dm}},
		"multi/left-deep":   {Coster: MultiParams{Mem: dm}},
		"static/bushy-util": {Space: SpaceBushy, Coster: StaticParams{Mem: dm}, Objective: ExponentialUtility{Gamma: 1e-6}},
		"static/pool-A":     {Coster: StaticParams{Mem: dm}, Pool: &Pool{}},
		"static/pool-B":     {Coster: StaticParams{Mem: dm}, Pool: &Pool{TopC: DefaultTopC}},
	}
}

// checkValidPlan asserts the result carries a finished plan covering every
// relation with a finite classical cost.
func checkValidPlan(t *testing.T, res *Result, q *query.SPJ, label string) {
	t.Helper()
	if res == nil || res.Plan == nil {
		t.Fatalf("%s: no plan returned", label)
	}
	if got := res.Plan.Rels().Len(); got != q.NumRels() {
		t.Fatalf("%s: plan covers %d of %d relations", label, got, q.NumRels())
	}
	if c := plan.Cost(res.Plan, 1000); math.IsNaN(c) || math.IsInf(c, 0) || c <= 0 {
		t.Fatalf("%s: plan cost %v is not finite positive", label, c)
	}
}

func TestBudgetExhaustionDegradesEveryConfig(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7001, 5)
	for name, cfg := range failsoftConfigs(dm) {
		opts := Options{Budget: Budget{MaxCostEvals: 10}}
		eng, err := NewOptimizer(cat, q, opts, cfg)
		if err != nil {
			t.Fatalf("%s: NewOptimizer: %v", name, err)
		}
		res, err := eng.OptimizeCtx(context.Background())
		if err != nil {
			t.Fatalf("%s: OptimizeCtx: %v", name, err)
		}
		checkValidPlan(t, res, q, name)
		if !res.Degraded || res.Reason != DegradeBudget {
			t.Errorf("%s: degraded=%v reason=%v, want budget degradation", name, res.Degraded, res.Reason)
		}
		if res.Rung != RungPartial && res.Rung != RungGreedy {
			t.Errorf("%s: rung %q", name, res.Rung)
		}
		if res.Count.Degradations == 0 {
			t.Errorf("%s: Degradations counter not incremented", name)
		}
	}
}

func TestSubsetBudgetTrips(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7002, 6)
	eng, err := NewOptimizer(cat, q, Options{Budget: Budget{MaxSubsets: 3}}, Config{Coster: StaticParams{Mem: dm}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.OptimizeCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkValidPlan(t, res, q, "subset budget")
	if !res.Degraded || res.Reason != DegradeBudget {
		t.Errorf("degraded=%v reason=%v, want budget", res.Degraded, res.Reason)
	}
}

func TestCancelledContextDegradesEveryConfig(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7003, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired when the search starts
	for name, cfg := range failsoftConfigs(dm) {
		eng, err := NewOptimizer(cat, q, Options{}, cfg)
		if err != nil {
			t.Fatalf("%s: NewOptimizer: %v", name, err)
		}
		res, err := eng.OptimizeCtx(ctx)
		if err != nil {
			t.Fatalf("%s: OptimizeCtx: %v", name, err)
		}
		checkValidPlan(t, res, q, name)
		if !res.Degraded || res.Reason != DegradeDeadline {
			t.Errorf("%s: degraded=%v reason=%v, want deadline", name, res.Degraded, res.Reason)
		}
	}
}

func TestInjectedPanicDegradesEveryConfig(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7004, 5)
	for name, cfg := range failsoftConfigs(dm) {
		faultinject.Enable(faultinject.New(1, faultinject.Rule{
			Site: faultinject.JoinCost, Kind: faultinject.KindPanic, After: 3,
		}))
		eng, err := NewOptimizer(cat, q, Options{}, cfg)
		if err != nil {
			faultinject.Disable()
			t.Fatalf("%s: NewOptimizer: %v", name, err)
		}
		res, err := eng.OptimizeCtx(context.Background())
		faultinject.Disable()
		if err != nil {
			t.Fatalf("%s: OptimizeCtx: %v", name, err)
		}
		checkValidPlan(t, res, q, name)
		if !res.Degraded || res.Reason != DegradePanic {
			t.Errorf("%s: degraded=%v reason=%v, want panic", name, res.Degraded, res.Reason)
		}
		if res.Count.PanicsRecovered == 0 {
			t.Errorf("%s: PanicsRecovered counter not incremented", name)
		}
	}
}

func TestNaNCostIsGuardedNotPropagated(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7005, 5)
	for name, cfg := range failsoftConfigs(dm) {
		faultinject.Enable(faultinject.New(1, faultinject.Rule{
			Site: faultinject.JoinCost, Kind: faultinject.KindNaN, After: 2,
		}))
		eng, err := NewOptimizer(cat, q, Options{}, cfg)
		if err != nil {
			faultinject.Disable()
			t.Fatalf("%s: NewOptimizer: %v", name, err)
		}
		res, err := eng.OptimizeCtx(context.Background())
		faultinject.Disable()
		if err != nil {
			t.Fatalf("%s: OptimizeCtx: %v", name, err)
		}
		checkValidPlan(t, res, q, name)
		if res.Count.NonFiniteCosts == 0 {
			t.Errorf("%s: NonFiniteCosts counter not incremented", name)
		}
		if !res.Degraded || res.Reason != DegradeNonFinite {
			t.Errorf("%s: degraded=%v reason=%v, want non-finite flag", name, res.Degraded, res.Reason)
		}
		if math.IsNaN(res.Cost) {
			t.Errorf("%s: NaN objective escaped: %v", name, res.Cost)
		}
	}
}

func TestAllCostsPoisonedIsTypedError(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7006, 4)
	faultinject.Enable(faultinject.New(1,
		faultinject.Rule{Site: faultinject.JoinCost, Kind: faultinject.KindNaN, After: 1, Every: 1},
		faultinject.Rule{Site: faultinject.SortCost, Kind: faultinject.KindInf, After: 1, Every: 1},
	))
	defer faultinject.Disable()
	eng, err := NewOptimizer(cat, q, Options{}, Config{Coster: StaticParams{Mem: dm}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.OptimizeCtx(context.Background())
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
}

func TestForcedCancellationAtNthEval(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7007, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := faultinject.New(1, faultinject.Rule{
		Site: faultinject.JoinCost, Kind: faultinject.KindCancel, After: 20,
	})
	in.OnCancel(cancel)
	faultinject.Enable(in)
	defer faultinject.Disable()
	eng, err := NewOptimizer(cat, q, Options{}, Config{Coster: StaticParams{Mem: dm}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.OptimizeCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkValidPlan(t, res, q, "forced cancel")
	if !res.Degraded || res.Reason != DegradeDeadline {
		t.Errorf("degraded=%v reason=%v, want deadline", res.Degraded, res.Reason)
	}
}

func TestSlowCosterHitsDeadline(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7008, 5)
	faultinject.Enable(faultinject.New(1, faultinject.Rule{
		Site: faultinject.JoinCost, Kind: faultinject.KindStall, After: 1, Every: 1, Sleep: 2 * time.Millisecond,
	}))
	defer faultinject.Disable()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	eng, err := NewOptimizer(cat, q, Options{}, Config{Coster: StaticParams{Mem: dm}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.OptimizeCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkValidPlan(t, res, q, "slow coster")
	if !res.Degraded || res.Reason != DegradeDeadline {
		t.Errorf("degraded=%v reason=%v, want deadline", res.Degraded, res.Reason)
	}
}

// poolConfigs are Algorithms A and B as candidate-pool configurations.
func poolConfigs(dm *stats.Dist) map[string]Config {
	return map[string]Config{
		"A": {Coster: StaticParams{Mem: dm}, Pool: &Pool{}},
		"B": {Coster: StaticParams{Mem: dm}, Pool: &Pool{TopC: DefaultTopC}},
	}
}

// TestAlgorithmsABDegradeUnderBudget drives the shared-session bucket loops
// and pins the rung and the served plan.
func TestAlgorithmsABDegradeUnderBudget(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7009, 5)
	opts := Options{Budget: Budget{MaxCostEvals: 10}}
	want := map[string]string{
		"A": "sort[t0.id](nested-loop(nested-loop(block-nested-loop(nested-loop(seq:t2,seq:t3),seq:t1),seq:t0),seq:t4))",
		"B": "sort[t0.id](nested-loop(nested-loop(block-nested-loop(nested-loop(seq:t2,seq:t3),seq:t1),seq:t0),seq:t4))",
	}
	for name, cfg := range poolConfigs(dm) {
		res, err := Run(context.Background(), cat, q, opts, cfg)
		if err != nil {
			t.Fatalf("algorithm %s: %v", name, err)
		}
		checkValidPlan(t, res, q, name)
		if !res.Degraded || res.Reason != DegradeBudget {
			t.Errorf("algorithm %s: degraded=%v reason=%v, want budget", name, res.Degraded, res.Reason)
		}
		if res.Rung != RungGreedy || res.Plan.Key() != want[name] {
			t.Errorf("algorithm %s: rung %q plan %s, want rung %q plan %s", name, res.Rung, res.Plan.Key(), RungGreedy, want[name])
		}
	}
}

// TestAlgorithmsABDegradeUnderPanic: a panicking coster inside the bucket
// loops must still yield a candidate; the rung and served plan are pinned.
func TestAlgorithmsABDegradeUnderPanic(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7010, 5)
	want := map[string]string{
		"A": "sort[t0.id](grace-hash(nested-loop(nested-loop(nested-loop(seq:t0,seq:t1),seq:t3),seq:t4),seq:t2))",
		"B": "sort[t0.id](grace-hash(nested-loop(nested-loop(nested-loop(seq:t0,seq:t1),seq:t3),seq:t4),seq:t2))",
	}
	for name, cfg := range poolConfigs(dm) {
		faultinject.Enable(faultinject.New(1, faultinject.Rule{
			Site: faultinject.JoinCost, Kind: faultinject.KindPanic, After: 5,
		}))
		res, err := Run(context.Background(), cat, q, Options{}, cfg)
		faultinject.Disable()
		if err != nil {
			t.Fatalf("algorithm %s: %v", name, err)
		}
		checkValidPlan(t, res, q, name)
		if !res.Degraded || res.Reason != DegradePanic {
			t.Errorf("algorithm %s: degraded=%v reason=%v, want panic", name, res.Degraded, res.Reason)
		}
		if res.Rung != RungGreedy || res.Plan.Key() != want[name] {
			t.Errorf("algorithm %s: rung %q plan %s, want rung %q plan %s", name, res.Rung, res.Plan.Key(), RungGreedy, want[name])
		}
	}
}

// TestAggregationDegradesUnderBudget covers the GROUP BY path, pinning the
// rung and the served plan.
func TestAggregationDegradesUnderBudget(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7011, 4)
	gb := query.ColumnRef{Table: q.Tables[0], Column: cat.MustTable(q.Tables[0]).Columns[0].Name}
	qq := *q
	qq.GroupBy = &gb
	qq.OrderBy = nil
	res, err := Run(context.Background(), cat, &qq, Options{Budget: Budget{MaxCostEvals: 10}},
		Config{Coster: StaticParams{Mem: dm}, Pool: &Pool{TopC: DefaultTopC}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("no plan")
	}
	if !res.Degraded || res.Reason != DegradeBudget {
		t.Errorf("degraded=%v reason=%v, want budget", res.Degraded, res.Reason)
	}
	const want = "hash-agg[t0.id](nested-loop(block-nested-loop(nested-loop(seq:t0,seq:t2),seq:t3),seq:t1))"
	if res.Rung != RungGreedy || res.Plan.Key() != want {
		t.Errorf("rung %q plan %s, want rung %q plan %s", res.Rung, res.Plan.Key(), RungGreedy, want)
	}
}

// TestUnbudgetedRunsIdentical: with no budget and a background context, the
// fail-soft machinery must be invisible — same plan, same objective, same
// work counters as the plain entry points, and never a Degraded flag.
func TestUnbudgetedRunsIdentical(t *testing.T) {
	for seed := int64(7100); seed < 7106; seed++ {
		cat, q, dm := engineTestInstance(t, seed, 5)
		plain, err := AlgorithmC(cat, q, Options{}, dm)
		if err != nil {
			t.Fatal(err)
		}
		ctxed, err := Run(context.Background(), cat, q, Options{}, Config{Coster: StaticParams{Mem: dm}})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Degraded || ctxed.Degraded {
			t.Fatalf("seed %d: unbudgeted run degraded", seed)
		}
		if plain.Plan.Key() != ctxed.Plan.Key() || plain.Cost != ctxed.Cost {
			t.Errorf("seed %d: plan/cost diverge: %s %v vs %s %v",
				seed, plain.Plan.Key(), plain.Cost, ctxed.Plan.Key(), ctxed.Cost)
		}
		if plain.Count.CostEvals != ctxed.Count.CostEvals || plain.Count.Subsets != ctxed.Count.Subsets {
			t.Errorf("seed %d: counters diverge: %+v vs %+v", seed, plain.Count, ctxed.Count)
		}
	}
}

// TestGenerousBudgetNeverDegrades: a budget larger than the search's actual
// work must not perturb anything.
func TestGenerousBudgetNeverDegrades(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7200, 5)
	free, err := AlgorithmC(cat, q, Options{}, dm)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Run(context.Background(), cat, q,
		Options{Budget: Budget{MaxCostEvals: free.Count.CostEvals * 10}}, Config{Coster: StaticParams{Mem: dm}})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Degraded {
		t.Fatal("generous budget degraded the run")
	}
	if free.Plan.Key() != capped.Plan.Key() {
		t.Errorf("plans diverge: %s vs %s", free.Plan.Key(), capped.Plan.Key())
	}
}

// TestBudgetMonotoneQuality: raising the budget must never worsen the
// returned plan's true expected cost on these instances — the anytime
// ladder's value proposition (experiment E19 reports the full curve).
func TestBudgetLadderReachesOptimum(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7201, 5)
	full, err := AlgorithmC(cat, q, Options{}, dm)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, b := range []int{5, 50, 500, 0} {
		res, err := Run(context.Background(), cat, q, Options{Budget: Budget{MaxCostEvals: b}}, Config{Coster: StaticParams{Mem: dm}})
		if err != nil {
			t.Fatalf("budget %d: %v", b, err)
		}
		checkValidPlan(t, res, q, "budget ladder")
		ec := plan.ExpCost(res.Plan, dm)
		// Not strictly monotone in general, but the unlimited run must match
		// the optimum and every rung must be within a sane factor of it.
		if b == 0 {
			if res.Degraded {
				t.Error("unlimited budget degraded")
			}
			if ec > full.Cost*(1+1e-9) {
				t.Errorf("unlimited budget ec %v > optimum %v", ec, full.Cost)
			}
		}
		if ec > prev*100 {
			t.Errorf("budget %d: quality collapsed: %v after %v", b, ec, prev)
		}
		prev = ec
	}
}

// TestGreedyFallbackDirect exercises the terminal rung in isolation: with a
// 1-eval budget nothing completes, so the greedy plan is the answer. The
// rung reports its plan's expected cost — exactly what re-scoring the plan
// under the coster's phase distributions gives, not a point estimate — and,
// because its seed portfolio contains tier 0's min-rows opening, it is never
// costlier than the plan the pinned greedy tier serves for the same instance
// and coster (checked over the tier property suite's random grid).
func TestGreedyFallbackDirect(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7202, 6)
	res, err := Run(context.Background(), cat, q, Options{Budget: Budget{MaxCostEvals: 1}}, Config{Coster: StaticParams{Mem: dm}})
	if err != nil {
		t.Fatal(err)
	}
	checkValidPlan(t, res, q, "greedy")
	if !res.Degraded || res.Rung != RungGreedy {
		t.Fatalf("1-eval budget: degraded=%v rung=%q, want the greedy rung", res.Degraded, res.Rung)
	}
	if rescored := plan.ExpCostPhased(res.Plan, []*stats.Dist{dm}); relDiff(res.Cost, rescored) > 1e-9 {
		t.Errorf("greedy rung cost %v != re-scored expected cost %v", res.Cost, rescored)
	}

	fallbacks := 0
	for i := 0; i < 120; i++ {
		seed := int64(41000 + i)
		dm := randMemDist3(seed)
		cc := tierCosters(dm)[i%5]
		n := 2 + i%(cc.maxN-1)
		cat, q := randInstance(t, seed, n, tierShapes[i%len(tierShapes)], i%3 == 0)
		eng, err := NewOptimizer(cat, q, Options{Budget: Budget{MaxCostEvals: 1}}, cc.cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fb, err := eng.Optimize()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fb.Rung != RungGreedy {
			continue
		}
		fallbacks++
		checkValidPlan(t, fb, q, "greedy")
		if rescored := plan.ExpCostPhased(fb.Plan, eng.tierPhaseDists()); relDiff(fb.Cost, rescored) > 1e-9 {
			t.Errorf("seed %d: greedy rung cost %v != re-scored expected cost %v", seed, fb.Cost, rescored)
		}
		tier0, err := optimizeConfig(cat, q, Options{Tier: TierGreedy}, cc.cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fb.Cost > tier0.Cost {
			t.Errorf("seed %d: greedy rung cost %v exceeds the tier-0 served cost %v", seed, fb.Cost, tier0.Cost)
		}
	}
	// Two-relation instances and the pipelined space complete a plan within
	// their first evaluation, so the partial rung serves those (37 of 120).
	if fallbacks < 80 {
		t.Errorf("only %d/120 grid instances reached the greedy rung", fallbacks)
	}
}

// TestSingleRelationFailsoft: the n=1 corner under faults.
func TestSingleRelationFailsoft(t *testing.T) {
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{Name: "t", Rows: 1000, Pages: 100,
		Columns: []*catalog.Column{{Name: "k", Distinct: 1000, Min: 1, Max: 1000}}})
	q := &query.SPJ{Tables: []string{"t"}, OrderBy: &query.ColumnRef{Table: "t", Column: "k"}}
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	dm := stats.MustNew([]float64{10, 100}, []float64{0.5, 0.5})
	res, err := Run(context.Background(), cat, q, Options{Budget: Budget{MaxCostEvals: 1}}, Config{Coster: StaticParams{Mem: dm}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("no plan for single relation")
	}
}

// TestParallelFaultMatrix: every injected fault kind (poisoned costs, a
// coster panic, cancellation) under the exhaustive enumerator and both DP
// spaces must end with a valid finished plan (possibly degraded) or a typed
// error, and must never hang. The name is kept from when the matrix ran at
// Parallelism 4; every search is sequential now.
func TestParallelFaultMatrix(t *testing.T) {
	runFaultMatrix(t, EnumExhaustive, 7301, 6, 0)
}

// TestParallelFaultMatrixConnected repeats the fault matrix with the
// connected enumerator on a cycle, so the csg sweep really prunes subsets
// while the faults fire.
func TestParallelFaultMatrixConnected(t *testing.T) {
	runFaultMatrix(t, EnumConnected, 9401, 7, workload.Cycle)
}

func runFaultMatrix(t *testing.T, enum Enumeration, seed int64, n int, shape workload.Topology) {
	dm := stats.MustNew([]float64{200, 900, 4000}, []float64{0.3, 0.4, 0.3})
	faults := map[string]faultinject.Rule{
		"nan":    {Site: faultinject.JoinCost, Kind: faultinject.KindNaN, After: 3, Every: 5},
		"inf":    {Site: faultinject.JoinCost, Kind: faultinject.KindInf, After: 3, Every: 5},
		"panic":  {Site: faultinject.JoinCost, Kind: faultinject.KindPanic, After: 10},
		"cancel": {Site: faultinject.JoinCost, Kind: faultinject.KindCancel, After: 15},
	}
	for fname, rule := range faults {
		for _, space := range []Space{SpaceLeftDeep, SpaceBushy} {
			t.Run(fname+"/"+space.String(), func(t *testing.T) {
				cat, q := randInstance(t, seed, n, shape, true)
				eng, err := NewOptimizer(cat, q, Options{Enumeration: enum, Trace: true},
					Config{Space: space, Coster: StaticParams{Mem: dm}})
				if err != nil {
					t.Fatalf("NewOptimizer: %v", err)
				}
				rc, cancel := context.WithCancel(context.Background())
				defer cancel()
				in := faultinject.New(1, rule)
				in.OnCancel(cancel)
				faultinject.Enable(in)
				defer faultinject.Disable()

				done := make(chan struct{})
				var res *Result
				var oerr error
				go func() {
					res, oerr = eng.OptimizeCtx(rc)
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(30 * time.Second):
					t.Fatal("run hung under fault injection")
				}
				if in.Hits(faultinject.JoinCost) == 0 {
					t.Fatal("the fault site was never reached")
				}
				if oerr != nil {
					return // typed failure is acceptable for total poisoning
				}
				checkValidPlan(t, res, q, fname)
			})
		}
	}
}
