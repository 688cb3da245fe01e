package serve

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/lec"
)

// chainSQL renders a chain join over the given tables of multiTableCatalog.
func chainSQL(tables []int) string {
	from := make([]string, len(tables))
	var where []string
	for i, t := range tables {
		from[i] = fmt.Sprintf("t%d", t)
		if i > 0 {
			where = append(where, fmt.Sprintf("t%d.k = t%d.k", tables[i-1], t))
		}
	}
	return "SELECT * FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
}

// TestCachedDecisionRetention bounds what one plan-cache entry keeps alive:
// 200 distinct 10-relation chain decisions are cached, and the live heap
// they add, per entry, must stay within 32 KiB. A served plan that still
// pointed into its optimizer session's arena would pin the session's node
// and predicate slabs — every losing candidate included — which measured
// ~180 KiB per entry.
func TestCachedDecisionRetention(t *testing.T) {
	const (
		entries  = 200
		rels     = 10
		maxBytes = 32 << 10
	)
	svc := New(multiTableCatalog(16), Config{})
	rng := rand.New(rand.NewSource(14))
	reqs := make([]Request, entries)
	for i := range reqs {
		mem := stats.MustNew([]float64{float64(500 + i), 4000}, []float64{0.3, 0.7})
		reqs[i] = Request{SQL: chainSQL(rng.Perm(16)[:rels]), Env: lec.Environment{Memory: mem}, Strategy: lec.AlgorithmC}
	}
	ctx := context.Background()
	// One warm-up request outside the measurement, so the service's lazily
	// built state is not charged to the entries.
	if _, err := svc.Optimize(ctx, Request{SQL: chainSQL([]int{0, 1}), Env: env(), Strategy: lec.AlgorithmC}); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	// Two collections: the second also empties the arena pool's victim
	// cache, so only what the cache entries reference stays live.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, req := range reqs {
		if _, err := svc.Optimize(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	reqs = nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)

	st := svc.Stats()
	if st.CacheMisses != entries+1 || st.Evictions != 0 {
		t.Fatalf("cache misses %d evictions %d, want %d distinct cached entries", st.CacheMisses, st.Evictions, entries+1)
	}
	perEntry := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / entries
	t.Logf("%d cached %d-relation decisions keep %.1f KiB each", entries, rels, float64(perEntry)/1024)
	if perEntry > maxBytes {
		t.Errorf("each cached decision keeps %d bytes alive, want ≤ %d", perEntry, maxBytes)
	}
	runtime.KeepAlive(svc)
}
