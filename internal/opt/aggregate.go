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

// groupRowsPerPage is the density of (key, count) aggregate output rows.
const groupRowsPerPage = 256

// OptimizeWithAggregation handles GROUP BY blocks: the SPJ core is
// optimized with Algorithm B's order-diverse candidate pool, then each
// candidate is finished with the aggregate method of least expected cost —
// hash aggregation (cheap while the group table fits memory) versus sort
// aggregation (free when the join output already carries the group key's
// order, and itself order-producing, which serves an ORDER BY on the group
// key). This is the aggregate analogue of Example 1.1's sort-vs-hash trade
// and exercises the paper's "sizes of groups" parameter (§1).
// The candidate pool covers the SPJ core, generated twice: once bare (cheap
// unordered inputs for hash aggregation) and once targeting the group key's
// order (sort-merge-last joins, order-providing index scans, or explicit
// sorts — the inputs that make sort aggregation free).
func OptimizeWithAggregation(cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	if q.GroupBy == nil {
		return nil, fmt.Errorf("opt: query has no GROUP BY; use AlgorithmC")
	}
	return Run(context.Background(), cat, q, opts, Config{Coster: StaticParams{Mem: dm}, Pool: &Pool{TopC: DefaultTopC}})
}

// aggSpec is a GROUP BY block's finishing step: the block itself (for its
// group key and ORDER BY) and the aggregate's size estimates.
type aggSpec struct {
	q             *query.SPJ
	groups, pages float64
}

// newAggregation builds a GROUP BY block's engine: a session over the bare
// join core, with a twin session over the core ordered on the group key.
// Each session generates its own candidate pool under its own budget meter;
// OptimizeCtx serves the cheaper of their picks, which is the least
// expected cost candidate of the union of the two pools.
func newAggregation(cat *catalog.Catalog, q *query.SPJ, opts Options, cfg Config) (*Optimizer, error) {
	if err := q.Validate(cat); err != nil {
		return nil, err
	}
	groups, pages, err := groupEstimates(cat, q)
	if err != nil {
		return nil, err
	}
	agg := &aggSpec{q: q, groups: groups, pages: pages}
	core := *q
	core.OrderBy = nil
	core.GroupBy = nil
	ordered := core
	ordered.OrderBy = q.GroupBy
	bare, err := newSession(cat, &core, opts, cfg)
	if err != nil {
		return nil, err
	}
	twin, err := newSession(cat, &ordered, opts, cfg)
	if err != nil {
		bare.release()
		return nil, err
	}
	bare.agg, twin.agg, bare.twin = agg, agg, twin
	return bare, nil
}

// joinTwin runs the twin session and folds its result into the bare
// session's res: the twin's pick is served only when strictly cheaper (so
// a candidate both pools hold resolves as in one union pool), the counters
// are summed, and the first session to degrade names the degradation.
func (o *Optimizer) joinTwin(rc context.Context, res *Result) (*Result, error) {
	tres, err := o.twin.OptimizeCtx(rc)
	if err != nil {
		return nil, err
	}
	out := res
	if tres.Cost < res.Cost {
		out = tres
	}
	deg := res
	if !res.Degraded {
		deg = tres
	}
	count := res.Count
	count.Add(tres.Count)
	out.Count = count
	out.Degraded, out.Reason, out.Rung = deg.Degraded, deg.Reason, deg.Rung
	return out, nil
}

// pickBest finishes every candidate with both aggregate methods and returns
// the least-expected-cost result.
func (a *aggSpec) pickBest(cands []plan.Node, dm *stats.Dist) (plan.Node, float64) {
	var best plan.Node
	bestCost := math.Inf(1)
	for _, cand := range cands {
		for _, m := range []plan.AggMethod{plan.HashAgg, plan.SortAgg} {
			finished := finishAggregate(a.q, cand, m, a.groups, a.pages)
			ec := plan.ExpCost(finished, dm)
			if ec < bestCost {
				best, bestCost = finished, ec
			}
		}
	}
	return best, bestCost
}

// finishAggregate wraps a join plan with the aggregate (and an ORDER BY
// sort over the aggregate output when still needed).
func finishAggregate(q *query.SPJ, cand plan.Node, m plan.AggMethod, groups, pages float64) plan.Node {
	agg := &plan.Aggregate{
		Input: cand, GroupKey: *q.GroupBy, Method: m,
		Groups: groups, Pages: pages,
	}
	var out plan.Node = agg
	if q.OrderBy != nil && !plan.SatisfiesOrder(out, *q.OrderBy) {
		out = &plan.Sort{Input: out, Key_: *q.OrderBy}
	}
	return out
}

// groupEstimates derives the number of groups (capped by the join result's
// cardinality) and the aggregate output's page count.
func groupEstimates(cat *catalog.Catalog, q *query.SPJ) (groups, pages float64, err error) {
	tab, err := cat.Table(q.BaseTable(q.GroupBy.Table))
	if err != nil {
		return 0, 0, err
	}
	col := tab.Column(q.GroupBy.Column)
	if col == nil {
		return 0, 0, fmt.Errorf("opt: unknown group column %s", q.GroupBy)
	}
	distinct := float64(col.Distinct)
	if distinct <= 0 {
		distinct = 10
	}
	core := *q
	core.OrderBy = nil
	core.GroupBy = nil
	ctx, err := NewContext(cat, &core, Options{})
	if err != nil {
		return 0, 0, err
	}
	defer ctx.releaseArena()
	resultRows := ctx.SubsetRows(query.FullSet(q.NumRels()))
	groups = math.Min(distinct, resultRows)
	if groups < 1 {
		groups = 1
	}
	pages = math.Ceil(groups / groupRowsPerPage)
	return groups, pages, nil
}

// ExhaustiveWithAggregation is the brute-force reference: every left-deep
// SPJ plan × both aggregate methods.
func ExhaustiveWithAggregation(cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	if q.GroupBy == nil {
		return nil, fmt.Errorf("opt: query has no GROUP BY")
	}
	if err := q.Validate(cat); err != nil {
		return nil, err
	}
	core := *q
	core.OrderBy = nil
	core.GroupBy = nil
	plans, err := EnumeratePlans(cat, &core, opts)
	if err != nil {
		return nil, err
	}
	ordered := core
	ordered.OrderBy = q.GroupBy
	orderedPlans, err := EnumeratePlans(cat, &ordered, opts)
	if err != nil {
		return nil, err
	}
	plans = append(plans, orderedPlans...)
	groups, pages, err := groupEstimates(cat, q)
	if err != nil {
		return nil, err
	}
	var best plan.Node
	bestCost := math.Inf(1)
	for _, cand := range plans {
		for _, m := range []plan.AggMethod{plan.HashAgg, plan.SortAgg} {
			finished := finishAggregate(q, cand, m, groups, pages)
			ec := plan.ExpCost(finished, dm)
			if ec < bestCost {
				best, bestCost = finished, ec
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("opt: no aggregate plan found")
	}
	return &Result{Plan: best, Cost: bestCost}, nil
}
