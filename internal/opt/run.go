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

// Run is the engine's one entry point: it builds an engine for q under cfg,
// runs it under the request context and Options.Budget, and ends the
// session. Every strategy is a Config point — Algorithm C is
// Config{Coster: StaticParams{Mem: dm}}, Algorithm B adds
// Pool: &Pool{TopC: c} — and every one shares OptimizeCtx's recover,
// anytime ladder, metrics flush and trace, and Finish's plan detach. On
// interruption the search degrades instead of failing; the Result's
// Degraded/Reason/Rung fields report what happened.
func Run(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, cfg Config) (*Result, error) {
	eng, err := NewOptimizer(cat, q, opts, cfg)
	if err != nil {
		return nil, err
	}
	return eng.Finish(eng.OptimizeCtx(rc))
}

// Finish ends an engine session at its entry point. It replaces res.Plan
// with a plan.Detach copy, so the returned plan shares no memory with the
// session arena — annotating Algorithm D's joins with their size
// distributions on the way — then resets the arena (and a GROUP BY twin's)
// into the package pool and returns the pricer's pooled scratch. Call
// Finish once, after any post-processing that reads the session's nodes,
// and do not run the engine again. err is passed through, so an entry
// point can end with return eng.Finish(eng.OptimizeCtx(rc)).
func (o *Optimizer) Finish(res *Result, err error) (*Result, error) {
	if res != nil && res.Plan != nil {
		res.Plan = plan.Detach(res.Plan)
		if _, ok := o.cfg.Coster.(MultiParams); ok {
			annotateSizeDists(o.ctx, res.Plan)
		}
	}
	o.release()
	if o.twin != nil {
		o.twin.release()
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

// runPool runs a candidate pool (Config.Pool): it gathers the pool and
// serves its least expected cost candidate. The buckets share the session
// and so its budget: an interruption stops the remaining buckets, and the
// pool gathered so far is the ladder's partial rung. With nothing gathered
// the interruption is returned and the ladder falls back to greedy.
func (o *Optimizer) runPool() (*Result, error) {
	pool, err := o.gatherPool()
	if err != nil {
		return nil, err
	}
	if len(pool) == 0 && o.ctx.stopped() {
		return nil, o.ctx.stopCause
	}
	return o.pick(pool)
}

// gatherPool is a candidate pool's generation phase: one search per bucket
// of the coster's distribution, at that bucket's memory value, with the
// candidates deduplicated by plan key in generation order. It stops at the
// first interruption; each bucket runs under guard, so a panicking bucket
// is one too and the candidates already gathered are kept.
func (o *Optimizer) gatherPool() ([]plan.Node, error) {
	ctx := o.ctx
	dm := o.cfg.Coster.(StaticParams).Mem
	seen := map[string]bool{}
	var pool []plan.Node
	add := func(p plan.Node) {
		if key := p.Key(); !seen[key] {
			seen[key] = true
			pool = append(pool, p)
		}
	}
	for i := 0; i < dm.Len() && !ctx.stopped(); i++ {
		o.pricer = fixedCoster{ctx: ctx, mem: dm.Value(i)}
		_, err := o.guard(func() (*Result, error) {
			if c := o.cfg.Pool.TopC; c > 0 {
				roots, err := o.runTopC(c)
				for _, r := range roots {
					add(r.node)
				}
				return nil, err
			}
			res, err := o.runLeftDeep()
			if res != nil {
				add(res.Plan)
			}
			return res, err
		})
		if err != nil && !ctx.stopped() {
			return nil, fmt.Errorf("opt: candidate pool at m=%v: %w", dm.Value(i), err)
		}
	}
	return pool, nil
}

// pick is a candidate pool's costing phase: the candidate of least expected
// cost under the coster's distribution — finished with the cheaper
// aggregate method first when the block has a GROUP BY.
func (o *Optimizer) pick(pool []plan.Node) (*Result, error) {
	dm := o.cfg.Coster.(StaticParams).Mem
	var best plan.Node
	var cost float64
	if o.agg != nil {
		best, cost = o.agg.pickBest(pool, dm)
	} else {
		best, cost = pickLeastExpected(pool, dm)
	}
	if best == nil {
		return nil, fmt.Errorf("opt: candidate pool produced no plan")
	}
	return &Result{Plan: best, Cost: cost, Count: o.ctx.snapshotCount()}, nil
}

// pickLeastExpected evaluates E[Φ] for each candidate under dm and returns
// the winner. This is Algorithm A's costing phase; the paper notes its cost
// is "much smaller than the cost of candidate generation".
func pickLeastExpected(cands []plan.Node, dm *stats.Dist) (plan.Node, float64) {
	var best plan.Node
	bestCost := math.Inf(1)
	for _, c := range cands {
		ec := plan.ExpCost(c, dm)
		if ec < bestCost {
			best, bestCost = c, ec
		}
	}
	return best, bestCost
}
