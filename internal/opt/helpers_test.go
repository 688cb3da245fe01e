package opt

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

// randInstance generates a random catalog + query for conformance tests.
func randInstance(t testing.TB, seed int64, n int, shape workload.Topology, orderBy bool) (*catalog.Catalog, *query.SPJ) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: n})
	q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{
		NumRels: n, Shape: shape, OrderBy: orderBy, SelectionProb: 0.4,
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return cat, q
}

// randMemDist3 draws a 3-bucket memory distribution whose support straddles
// the interesting cost-formula regions for typical generated table sizes.
func randMemDist3(seed int64) *stats.Dist {
	rng := rand.New(rand.NewSource(seed))
	vals := []float64{
		10 + rng.Float64()*90,     // tiny: below most thresholds
		100 + rng.Float64()*900,   // medium: straddles √S for smaller tables
		1000 + rng.Float64()*9000, // large: above most √L thresholds
	}
	w := []float64{rng.Float64() + 0.05, rng.Float64() + 0.05, rng.Float64() + 0.05}
	return stats.MustNew(vals, w)
}

// optimizeConfig runs one engine configuration to completion — the body
// every context-free strategy entry point shares, for Space × Coster ×
// Objective points that have no named entry point.
func optimizeConfig(cat *catalog.Catalog, q *query.SPJ, opts Options, cfg Config) (*Result, error) {
	eng, err := NewOptimizer(cat, q, opts, cfg)
	if err != nil {
		return nil, err
	}
	return eng.Optimize()
}

const costTol = 1e-6

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m == 0 {
		return 0
	}
	return d / m
}
