package opt

import (
	"sort"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/query"
	"repro/internal/stats"
)

// This file implements the level-set-aware bucketing strategy of paper
// §3.7: "if the cost of P has relatively few level sets, then it may be
// wise to bucket the parameter space with these level sets in mind." For
// the memory parameter, the level-set boundaries of every join the
// optimizer might consider are known in closed form (MemBreakpoints), so
// the query's entire parameter space can be partitioned into the minimal
// set of intervals within which every candidate plan's cost is constant.

// QueryMemBreakpoints returns the ascending set of memory values at which
// the cost of any join step or final sort the optimizer could construct for
// this query changes. Bucketing the memory distribution at these boundaries
// makes the bucketed expected cost of every left-deep plan *exact*.
func QueryMemBreakpoints(cat *catalog.Catalog, q *query.SPJ, opts Options) ([]float64, error) {
	ctx, err := NewContext(cat, q, opts)
	if err != nil {
		return nil, err
	}
	n := q.NumRels()
	set := map[float64]bool{}
	// Every join step the lattice can produce: subset S joined with
	// relation j ∉ S. The sweep follows the configured enumerator — under
	// EnumConnected the optimizer only ever prices extensions of connected
	// subsets by adjacent relations, so the breakpoint set matches the
	// steps that search can construct.
	connectedOnly := ctx.enumEff == EnumConnected
	for d := 1; d < n; d++ {
		ctx.forEachLevel(d, func(s query.RelSet) {
			a := ctx.SubsetPages(s)
			for j := 0; j < n; j++ {
				if s.Has(j) {
					continue
				}
				if connectedOnly && ctx.conn[j]&s == 0 {
					continue
				}
				b := ctx.basePages[j]
				for _, m := range ctx.Opts.methods() {
					for _, bp := range cost.MemBreakpoints(m, a, b) {
						set[bp] = true
					}
				}
			}
		})
	}
	// The final sort, if the query orders its output.
	if q.OrderBy != nil {
		for _, bp := range cost.SortMemBreakpoints(ctx.SubsetPages(query.FullSet(n))) {
			set[bp] = true
		}
	}
	out := make([]float64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out, nil
}

// LevelSetMemDist rebuckets a fine-grained memory distribution at the
// query's level-set boundaries, optionally capping the bucket count (the
// coarse-to-fine refinement of §3.7). With maxBuckets ≤ 0 the full
// boundary set is used and the resulting distribution prices every plan
// exactly.
func LevelSetMemDist(fine *stats.Dist, breakpoints []float64, maxBuckets int) (*stats.Dist, error) {
	d, err := stats.BucketizeAt(fine, breakpoints)
	if err != nil {
		return nil, err
	}
	if maxBuckets > 0 {
		d = stats.Rebucket(d, maxBuckets)
	}
	return d, nil
}
