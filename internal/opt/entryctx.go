package opt

import (
	"context"
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// This file provides the context-aware variants of the package's historical
// entry points. Each XCtx function is the fail-soft form of X: it threads a
// request context (deadline/cancellation) and the Options.Budget through the
// search, and on interruption degrades down the anytime ladder instead of
// failing — the Result's Degraded/Reason/Rung fields report what happened.
// The context-free entry points are now thin wrappers over these with
// context.Background(), which with an unlimited budget reproduces the
// pre-fail-soft behavior exactly.
//
// Every entry point that owns an engine session ends through
// Optimizer.Finish: the served plan is detached from the session arena and
// the arena goes back to the package pool, so a caller that keeps the
// Result (a plan cache, say) keeps O(n) plan nodes alive, not the search.

// SystemRCtx is SystemR under a request context and the Options.Budget.
func SystemRCtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, mem float64) (*Result, error) {
	eng, err := NewOptimizer(cat, q, opts, Config{Coster: FixedParams{Mem: mem}})
	if err != nil {
		return nil, err
	}
	return eng.Finish(eng.OptimizeCtx(rc))
}

// AlgorithmCCtx is AlgorithmC under a request context and budget.
func AlgorithmCCtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	eng, err := NewOptimizer(cat, q, opts, Config{Coster: StaticParams{Mem: dm}})
	if err != nil {
		return nil, err
	}
	return eng.Finish(eng.OptimizeCtx(rc))
}

// AlgorithmCDynamicCtx is AlgorithmCDynamic under a request context and
// budget.
func AlgorithmCDynamicCtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, chain *stats.Chain, initial *stats.Dist) (*Result, error) {
	eng, err := NewOptimizer(cat, q, opts, Config{Coster: MarkovParams{Chain: chain, Initial: initial}})
	if err != nil {
		return nil, err
	}
	return eng.Finish(eng.OptimizeCtx(rc))
}

// AlgorithmDCtx is AlgorithmD under a request context and budget. The
// returned plan's joins are annotated with their size distributions exactly
// as AlgorithmD does (the greedy fallback builds ordinary left-deep joins,
// so its plans annotate the same way). The annotation is written on the
// detached copy; the size memos it reads outlive the arena.
func AlgorithmDCtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	eng, err := NewOptimizer(cat, q, opts, Config{Coster: MultiParams{Mem: dm}})
	if err != nil {
		return nil, err
	}
	res, err := eng.Finish(eng.OptimizeCtx(rc))
	if err != nil {
		return nil, err
	}
	annotateSizeDists(eng.ctx, res.Plan)
	return res, nil
}

// LSCPlanCtx is LSCPlan under a request context and budget: the classical
// optimizer run at the distribution's representative value, with the chosen
// plan re-costed in expectation under dm.
func LSCPlanCtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist, useMode bool) (*Result, error) {
	rep := dm.Mean()
	if useMode {
		rep = dm.Mode()
	}
	res, err := SystemRCtx(rc, cat, q, opts, rep)
	if err != nil {
		return nil, err
	}
	out := *res
	out.Cost = plan.ExpCost(res.Plan, dm)
	return &out, nil
}

// Finish ends an engine session at its entry point. It replaces res.Plan
// with a plan.Detach copy, so the returned plan shares no memory with the
// session arena, then resets the arena into the package pool and returns
// the pricer's pooled scratch. sessions names further engines the result
// was picked from (the aggregation path unions two sessions' pools); they
// are released the same way. Call Finish once, after any post-processing
// that reads the sessions' nodes, and do not run the engines again. err is
// passed through, so an entry point can end with
// return eng.Finish(eng.OptimizeCtx(rc)).
func (o *Optimizer) Finish(res *Result, err error, sessions ...*Optimizer) (*Result, error) {
	if res != nil && res.Plan != nil {
		res.Plan = plan.Detach(res.Plan)
	}
	o.release()
	for _, e := range sessions {
		e.release()
	}
	return res, err
}

// release hands the session's pooled scratch back: the pricer's batch
// vectors and the arena.
func (o *Optimizer) release() {
	releasePricerCaches(o.pricer)
	o.pricer = nil
	o.ctx.releaseArena()
}

// degradeInfo accumulates degradation across a multi-bucket run: the first
// degradation observed wins (later buckets degrade for the same cause).
type degradeInfo struct {
	degraded bool
	reason   DegradeReason
	rung     string
}

func (d *degradeInfo) note(reason DegradeReason, rung string) {
	if !d.degraded {
		d.degraded, d.reason, d.rung = true, reason, rung
	}
}

// apply flags an aggregated Result. It does not touch the Degradations
// counter — the per-bucket runs already counted their own events.
func (d degradeInfo) apply(res *Result) {
	if d.degraded {
		res.Degraded, res.Reason, res.Rung = true, d.reason, d.rung
	}
}

// AlgorithmACtx is AlgorithmA under a request context and budget. The b
// bucket searches share one engine session, so they share one budget; when
// the meter trips mid-session the candidate pool is whatever the completed
// buckets produced (plus the interrupted bucket's degraded plan), and the
// aggregated Result is flagged.
func AlgorithmACtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	eng, err := bucketOptimizer(cat, q, opts, dm)
	if err != nil {
		return nil, err
	}
	cands, deg, err := eng.algorithmACandidates(rc, dm)
	if err != nil {
		return eng.Finish(nil, err)
	}
	return eng.Finish(eng.pickBucketCandidate("A", cands, deg, dm))
}

// bucketOptimizer builds the one engine session Algorithms A and B run
// their b bucket searches in, configured for the first bucket.
func bucketOptimizer(cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Optimizer, error) {
	// The bucket searches build a candidate pool; a greedy tier serving
	// individual buckets would defeat the pool, so tiering applies at the
	// strategy level, not here.
	opts.Tier = TierDP
	return NewOptimizer(cat, q, opts, Config{Coster: FixedParams{Mem: dm.Value(0)}})
}

// pickBucketCandidate is Algorithm A's and B's costing phase: the least
// expected cost plan of the session's pool, reported with the session's
// counters, degradation and trace (stamped with the final pick's outcome).
// The pick is still a session node; the caller finishes the session.
func (o *Optimizer) pickBucketCandidate(alg string, cands []plan.Node, deg degradeInfo, dm *stats.Dist) (*Result, error) {
	best, bestCost := pickLeastExpected(cands, dm)
	if best == nil {
		return nil, fmt.Errorf("opt: algorithm %s produced no candidates", alg)
	}
	res := &Result{Plan: best, Cost: bestCost, Count: o.Stats()}
	deg.apply(res)
	o.ctx.attachTrace(res)
	return res, nil
}

// algorithmACandidates runs Algorithm A's bucket searches in a
// bucketOptimizer session. Budgets are metered against the session totals:
// once a bucket degrades for an exogenous cause (deadline, budget) the
// remaining buckets are skipped — they would only replay the greedy
// fallback.
func (o *Optimizer) algorithmACandidates(rc context.Context, dm *stats.Dist) ([]plan.Node, degradeInfo, error) {
	var deg degradeInfo
	seen := map[string]bool{}
	var cands []plan.Node
	for i := 0; i < dm.Len(); i++ {
		if err := o.SetCoster(FixedParams{Mem: dm.Value(i)}); err != nil {
			return nil, deg, err
		}
		res, err := o.OptimizeCtx(rc)
		if err != nil {
			if len(cands) > 0 && o.ctx.stopped() {
				// The ladder itself failed for this bucket, but earlier
				// buckets delivered: degrade rather than fail.
				deg.note(o.ctx.degradeReason(), RungPartial)
				break
			}
			return nil, deg, fmt.Errorf("opt: algorithm A at m=%v: %w", dm.Value(i), err)
		}
		key := res.Plan.Key()
		if !seen[key] {
			seen[key] = true
			cands = append(cands, res.Plan)
		}
		if res.Degraded {
			deg.note(res.Reason, res.Rung)
			if res.Reason == DegradeBudget || res.Reason == DegradeDeadline {
				break
			}
		}
	}
	return cands, deg, nil
}

// runTopCGuarded is runTopC under the same recover discipline as the
// single-plan searches: a panicking coster interrupts the session instead of
// escaping Algorithm B's bucket loop.
func (o *Optimizer) runTopCGuarded(c int) (roots []topEntry, err error) {
	defer func() {
		if p := recover(); p != nil {
			o.ctx.Count.PanicsRecovered++
			pe := panicError{val: p}
			o.ctx.interrupt(pe)
			roots, err = nil, pe
		}
	}()
	return o.runTopC(c)
}

// AlgorithmBCtx is AlgorithmB under a request context and budget, with the
// same shared-session budget semantics as AlgorithmACtx.
func AlgorithmBCtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	eng, err := bucketOptimizer(cat, q, opts, dm)
	if err != nil {
		return nil, err
	}
	cands, deg, err := eng.algorithmBCandidates(rc, dm)
	if err != nil {
		return eng.Finish(nil, err)
	}
	return eng.Finish(eng.pickBucketCandidate("B", cands, deg, dm))
}

// algorithmBCandidates generates Algorithm B's candidate pool in a
// bucketOptimizer session under a request context and budget. One beginRun
// arms the whole session: the stop cause is sticky across buckets, so an
// interruption in bucket i halts buckets i+1..b too. The anytime guarantee
// holds at the pool level — if the interrupted search produced no finished
// root at all, the greedy fallback contributes the guaranteed candidate.
func (o *Optimizer) algorithmBCandidates(rc context.Context, dm *stats.Dist) ([]plan.Node, degradeInfo, error) {
	var deg degradeInfo
	o.ctx.beginRun(rc)
	// The session never passes through OptimizeCtx, so the run is flushed
	// to the metrics bundle here, whatever path exits the bucket loop.
	defer o.ctx.flushMetrics()
	c := o.ctx.Opts.TopC
	seen := map[string]bool{}
	var cands []plan.Node
	for i := 0; i < dm.Len() && !o.ctx.stopped(); i++ {
		if err := o.SetCoster(FixedParams{Mem: dm.Value(i)}); err != nil {
			return nil, deg, err
		}
		roots, err := o.runTopCGuarded(c)
		if err != nil {
			if o.ctx.stopped() {
				break
			}
			return nil, deg, fmt.Errorf("opt: algorithm B at m=%v: %w", dm.Value(i), err)
		}
		for _, r := range roots {
			if key := r.node.Key(); !seen[key] {
				seen[key] = true
				cands = append(cands, r.node)
			}
		}
	}
	if o.ctx.stopped() {
		deg.note(o.ctx.degradeReason(), RungPartial)
		if len(cands) == 0 {
			fb, ferr := o.fallbackGuarded()
			if ferr != nil {
				return nil, deg, fmt.Errorf("%w (fallback also failed: %v)", causeOrBudget(o.ctx.stopCause), ferr)
			}
			deg.rung = RungGreedy
			cands = append(cands, fb.Plan)
		}
		o.ctx.Count.Degradations++
	} else if o.ctx.sawNonFinite() {
		if len(cands) == 0 {
			return nil, deg, ErrNonFinite
		}
		deg.note(DegradeNonFinite, RungFull)
		o.ctx.Count.Degradations++
	}
	return cands, deg, nil
}

// OptimizeWithAggregationCtx is OptimizeWithAggregation under a request
// context and budget. The two candidate-pool generations run on separate
// engine sessions (the bare core and the group-key-ordered core are
// different queries), so each gets its own budget meter; a degradation in
// either flags the aggregated Result.
func OptimizeWithAggregationCtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	if q.GroupBy == nil {
		return nil, fmt.Errorf("opt: query has no GROUP BY; use AlgorithmC")
	}
	if err := q.Validate(cat); err != nil {
		return nil, err
	}
	core := *q
	core.OrderBy = nil
	core.GroupBy = nil
	ordered := core
	ordered.OrderBy = q.GroupBy
	bare, err := bucketOptimizer(cat, &core, opts, dm)
	if err != nil {
		return nil, err
	}
	grouped, err := bucketOptimizer(cat, &ordered, opts, dm)
	if err != nil {
		return bare.Finish(nil, err)
	}
	res, err := pickAggregate(rc, cat, q, dm, bare, grouped)
	return grouped.Finish(res, err, bare)
}

// pickAggregate unions the two sessions' pools, with degradation
// accumulated across both, and finishes the least expected cost candidate
// with an aggregate.
func pickAggregate(rc context.Context, cat *catalog.Catalog, q *query.SPJ, dm *stats.Dist, bare, grouped *Optimizer) (*Result, error) {
	cands, deg, err := bare.algorithmBCandidates(rc, dm)
	if err != nil {
		return nil, err
	}
	moreCands, moreDeg, err := grouped.algorithmBCandidates(rc, dm)
	if err != nil {
		return nil, err
	}
	counters := bare.Stats()
	counters.Add(grouped.Stats())
	if moreDeg.degraded {
		deg.note(moreDeg.reason, moreDeg.rung)
	}
	seen := map[string]bool{}
	var pool []plan.Node
	for _, c := range append(cands, moreCands...) {
		if key := c.Key(); !seen[key] {
			seen[key] = true
			pool = append(pool, c)
		}
	}
	groups, pages, err := groupEstimates(cat, q)
	if err != nil {
		return nil, err
	}
	best, bestCost := pickBestAggregate(q, pool, dm, groups, pages)
	if best == nil {
		return nil, fmt.Errorf("opt: aggregation produced no plan")
	}
	res := &Result{Plan: best, Cost: bestCost, Count: counters}
	deg.apply(res)
	return res, nil
}

// pickBestAggregate finishes every candidate with both aggregate methods and
// returns the least-expected-cost result.
func pickBestAggregate(q *query.SPJ, cands []plan.Node, dm *stats.Dist, groups, pages float64) (plan.Node, float64) {
	var best plan.Node
	bestCost := math.Inf(1)
	for _, cand := range cands {
		for _, m := range []plan.AggMethod{plan.HashAgg, plan.SortAgg} {
			finished := finishAggregate(q, cand, m, groups, pages)
			ec := plan.ExpCost(finished, dm)
			if ec < bestCost {
				best, bestCost = finished, ec
			}
		}
	}
	return best, bestCost
}
