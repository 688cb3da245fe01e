package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/catalog"
	"repro/internal/opt"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/lec"
)

// envOf rebuilds the environment lecd derives from a request: the memory
// distribution, plus the Markov random walk over its support when the
// request sets a volatility.
func envOf(s spec) (lec.Environment, error) {
	mem, err := stats.ParseDist(s.Mem)
	if err != nil {
		return lec.Environment{}, err
	}
	env := lec.Environment{Memory: mem}
	if s.Volatility > 0 {
		env.Chain, err = stats.RandomWalkChain(mem.Support(), s.Volatility, s.Volatility)
		if err != nil {
			return lec.Environment{}, err
		}
	}
	return env, nil
}

// oracle holds the reference LEC cost of every distinct request: a tier-dp,
// unbudgeted in-process run over the same catalog file lecd loaded. The
// enumerator follows the workload's: the connected and exhaustive DPs
// return the same plan and cost on connected join graphs, and connected is
// far cheaper at tiered-auto's sizes.
type oracle struct {
	cat  *catalog.Catalog
	opts lec.Options
	ref  map[int]float64
}

func newOracle(cat *catalog.Catalog, w *workloadDef) *oracle {
	return &oracle{cat: cat, opts: lec.Options{Tier: lec.TierDP, Enumeration: w.enum}, ref: map[int]float64{}}
}

// reference computes the references of ids not yet known, on up to nproc
// goroutines; it runs outside every timed phase.
func (o *oracle) reference(rs *requestSet, ids []int) error {
	var todo []int
	seen := map[int]bool{}
	for _, id := range ids {
		if _, ok := o.ref[id]; !ok && !seen[id] {
			seen[id] = true
			todo = append(todo, id)
		}
	}
	specs := make([]spec, len(todo))
	for i, id := range todo {
		s, _, err := rs.get(id)
		if err != nil {
			return err
		}
		specs[i] = s
	}
	costs := make([]float64, len(todo))
	errs := make([]error, len(todo))
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(todo); i += workers {
				costs[i], errs[i] = o.cost(specs[i])
			}
		}(w)
	}
	wg.Wait()
	for i, id := range todo {
		if errs[i] != nil {
			return fmt.Errorf("reference for request %d: %w", id, errs[i])
		}
		o.ref[id] = costs[i]
	}
	return nil
}

func (o *oracle) cost(s spec) (float64, error) {
	q, err := sqlparse.ParseAndBind(s.SQL, o.cat)
	if err != nil {
		return 0, err
	}
	env, err := envOf(s)
	if err != nil {
		return 0, err
	}
	d, err := lec.NewWithOptions(o.cat, o.opts).OptimizeContext(context.Background(), q, env, lec.AlgorithmC)
	if err != nil {
		return 0, err
	}
	if d.Degraded {
		return 0, fmt.Errorf("reference run degraded: %v", d.DegradeReason)
	}
	return d.ExpectedCost, nil
}

// relTol is the relative error within which a served exact plan must match
// the reference.
const relTol = 1e-9

// check judges one served response against the reference cost:
//   - an exact (tier dp or escalated) plan must equal it within relTol;
//   - a greedy-tier plan must cost at most (1+MaxGap)·reference, the tier's
//     guarantee;
//   - a pressure-degraded plan only needs a finite positive cost; the load
//     generator counts it as a failed request.
//
// It returns a description of the mismatch, or "".
func check(r wireResp, ref float64) string {
	served := r.ExpectedCost
	if math.IsNaN(served) || math.IsInf(served, 0) || served <= 0 {
		return fmt.Sprintf("non-finite or non-positive expected_cost %v", served)
	}
	switch {
	case r.Degraded || r.Pressure != "":
	case r.Tier == "greedy":
		if limit := ref * (1 + opt.DefaultTierMaxGap) * (1 + relTol); served > limit {
			return fmt.Sprintf("greedy plan cost %v above (1+MaxGap)·%v", served, ref)
		}
	default:
		if math.Abs(served-ref) > relTol*ref {
			return fmt.Sprintf("plan cost %v differs from the reference %v", served, ref)
		}
	}
	return ""
}
