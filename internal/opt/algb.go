package opt

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// topEntry is one of the c best plans for a lattice node.
type topEntry struct {
	node plan.Node
	cost float64
}

// mergeTopC combines the top plans for the left input (sorted ascending by
// cost) with the access paths for the right input (also sorted), keeping
// only pairs (i, k) with i·k ≤ c (1-indexed). Proposition 3.1: the pair
// (s_i, a_k) is dominated by at least i·k − 1 cheaper combinations, so pairs
// with i·k > c can never be in the top c; at most c + c·ln c pairs survive
// the cut. stepCost is the join-method cost, identical for every pair.
func mergeTopC(ctx *Context, left []topEntry, scans []topEntry, stepCost float64, c int,
	build func(l, r topEntry) plan.Node) []topEntry {
	var out []topEntry
	combos := 0
	for i := 1; i <= len(left) && i <= c; i++ {
		maxK := c / i
		for k := 1; k <= len(scans) && k <= maxK; k++ {
			combos++
			l, r := left[i-1], scans[k-1]
			out = append(out, topEntry{
				node: build(l, r),
				cost: l.cost + r.cost + stepCost,
			})
		}
	}
	ctx.Count.MergeCombos += combos
	if combos > ctx.Count.MaxMergeCombos {
		ctx.Count.MaxMergeCombos = combos
	}
	return out
}

// sortTruncate orders entries by cost (ties broken on the structural key
// for determinism) and keeps the best c; the rest count as prunes.
func sortTruncate(ctx *Context, entries []topEntry, c int) []topEntry {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].cost != entries[j].cost {
			return entries[i].cost < entries[j].cost
		}
		return entries[i].node.Key() < entries[j].node.Key()
	})
	if len(entries) > c {
		ctx.Count.Prunes += len(entries) - c
		entries = entries[:c]
	}
	return entries
}

// runTopC runs the top-c variant of the System R dynamic program
// (paper §3.3) and returns the best c finished root plans, ascending by
// cost under the engine's pricer. The per-relation scan lists and the
// per-subset list table are engine scratch, reused across a candidate
// pool's bucket invocations.
func (o *Optimizer) runTopC(c int) ([]topEntry, error) {
	ctx, pr := o.ctx, o.pricer
	n := ctx.Q.NumRels()
	if n == 0 {
		return nil, fmt.Errorf("opt: empty query")
	}
	scanLists := o.scanLists(c)
	if n == 1 {
		var roots []topEntry
		for _, e := range scanLists[0] {
			roots = append(roots, finishEntry(ctx, pr, e, 0))
		}
		return sortTruncate(ctx, roots, c), nil
	}

	lists := o.topTable(n)
	for i := 0; i < n; i++ {
		lists.put(query.NewRelSet(i), scanLists[i])
	}
	full := query.FullSet(n)
	var roots []topEntry
	methods := ctx.Opts.Methods

	for d := 2; d <= n && !ctx.stopped(); d++ {
		ctx.forEachLevel(d, func(s query.RelSet) {
			if !ctx.visitSubset() {
				return
			}
			var merged []topEntry
			s.ForEach(func(j int) {
				if ctx.stopped() {
					return
				}
				sj := s.Without(j)
				// Empty under the connected enumerator when S\{j} is
				// disconnected — the same csg restriction as the single-best DP.
				left := lists.get(sj)
				if len(left) == 0 {
					return
				}
				for _, m := range methods {
					ctx.Count.JoinSteps++
					stepCost := ctx.priceJoin(pr, m, left[0].node, scanLists[j][0].node, s, d-2)
					merged = append(merged, mergeTopC(ctx, left, scanLists[j], stepCost, c,
						func(l, r topEntry) plan.Node {
							return ctx.NewJoin(l.node, r.node.(*plan.Scan), m, s, j)
						})...)
				}
			})
			if s == full {
				for _, e := range merged {
					roots = append(roots, finishEntry(ctx, pr, e, d-2))
				}
			}
			lists.put(s, sortTruncate(ctx, merged, c))
		})
	}
	if ctx.stopped() && len(roots) == 0 {
		// Anytime: an interrupted top-c search with no finished roots has
		// nothing to hand back; the caller's ladder takes over.
		return nil, ctx.stopCause
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("opt: no plan found")
	}
	return sortTruncate(ctx, roots, c), nil
}

// finishEntry applies the ORDER BY sort to a root candidate, charging the
// sort cost when the plan's order does not already satisfy it.
func finishEntry(ctx *Context, pr stepPricer, e topEntry, phase int) topEntry {
	finished, added := ctx.FinishPlan(e.node)
	total := e.cost
	if added {
		total += ctx.priceSort(pr, e.node, phase)
	}
	return topEntry{node: finished, cost: total}
}

// AlgorithmB implements paper §3.3: generate the top c = DefaultTopC plans
// for each of the b bucket representatives of the memory distribution, then
// pick the candidate with the least expected cost under the full
// distribution (other c: Run with Pool{TopC: c}). It dominates Algorithm A
// (its candidate pool is a superset) but still does not always find the
// exact LEC plan.
func AlgorithmB(cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	return Run(context.Background(), cat, q, opts, Config{Coster: StaticParams{Mem: dm}, Pool: &Pool{TopC: DefaultTopC}})
}

// TopCPlans exposes the top-c plans at a single fixed memory value,
// ascending by cost — used by tests to check Proposition 3.1 and the
// correctness of the top-c lists against exhaustive enumeration.
func TopCPlans(cat *catalog.Catalog, q *query.SPJ, opts Options, mem float64, c int) ([]plan.Node, []float64, Counters, error) {
	eng, err := NewOptimizer(cat, q, opts, Config{Coster: FixedParams{Mem: mem}})
	if err != nil {
		return nil, nil, Counters{}, err
	}
	plans, costs, err := eng.OptimizeTop(c)
	for i, p := range plans {
		plans[i] = plan.Detach(p)
	}
	count := eng.Stats()
	eng.Finish(nil, nil)
	return plans, costs, count, err
}

// MergeBound returns the Proposition 3.1 upper bound c + c·ln c on the
// number of combinations examined per (input, join-method) merge.
func MergeBound(c int) float64 {
	if c <= 1 {
		return float64(c)
	}
	return float64(c) + float64(c)*math.Log(float64(c))
}
