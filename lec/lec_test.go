package lec

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

func example11Env() (*Optimizer, string, Environment) {
	cat, _, dm := workload.Example11()
	sql := "SELECT * FROM A, B WHERE A.k = B.k ORDER BY A.k"
	return New(cat), sql, Environment{Memory: dm}
}

func TestOptimizeSQLEndToEnd(t *testing.T) {
	o, sql, env := example11Env()
	d, err := o.OptimizeSQL(sql, env)
	if err != nil {
		t.Fatal(err)
	}
	if d.Strategy != AlgorithmC {
		t.Errorf("default strategy %v", d.Strategy)
	}
	// The SQL path estimates its own join selectivity (1/max distinct), so
	// the chosen method can differ from the hand-built fixture; what must
	// hold is that AlgorithmC's expected cost is minimal among all
	// strategies for the same bound query, and that the ORDER BY is
	// satisfied.
	if d.ExpectedCost <= 0 {
		t.Errorf("expected cost %v", d.ExpectedCost)
	}
	ds, err := o.Compare(d.Query, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range ds {
		if other.Strategy == AlgorithmD {
			continue // D optimizes a different (distribution-aware) objective
		}
		if d.ExpectedCost > other.ExpectedCost*(1+1e-9) {
			t.Errorf("AlgorithmC (%.0f) worse than %v (%.0f)", d.ExpectedCost, other.Strategy, other.ExpectedCost)
		}
	}
	if d.Query.OrderBy == nil || !plan.SatisfiesOrder(d.Plan, *d.Query.OrderBy) {
		t.Errorf("ORDER BY not satisfied:\n%s", d.Explain())
	}
	out := d.Explain()
	for _, want := range []string{"algorithm-c", "expected cost", "join"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	if got := d.CostAt(2000); got <= 0 {
		t.Errorf("CostAt = %v", got)
	}
}

func TestCompareOrdersStrategiesCorrectly(t *testing.T) {
	cat, q, dm := workload.Example11()
	o := New(cat)
	ds, err := o.Compare(q, Environment{Memory: dm})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != len(Strategies()) {
		t.Fatalf("%d decisions", len(ds))
	}
	byStrategy := map[Strategy]*Decision{}
	for _, d := range ds {
		byStrategy[d.Strategy] = d
	}
	// On Example 1.1 the LEC strategies beat both LSC variants.
	for _, lsc := range []Strategy{LSCMean, LSCMode} {
		for _, lec := range []Strategy{AlgorithmA, AlgorithmB, AlgorithmC, AlgorithmD} {
			if byStrategy[lec].ExpectedCost >= byStrategy[lsc].ExpectedCost {
				t.Errorf("%v (%.0f) not better than %v (%.0f)",
					lec, byStrategy[lec].ExpectedCost, lsc, byStrategy[lsc].ExpectedCost)
			}
		}
	}
	// A, B, C, D agree on this instance.
	if byStrategy[AlgorithmC].ExpectedCost != byStrategy[AlgorithmA].ExpectedCost {
		t.Errorf("A and C disagree: %v vs %v",
			byStrategy[AlgorithmA].ExpectedCost, byStrategy[AlgorithmC].ExpectedCost)
	}
}

func TestDynamicEnvironment(t *testing.T) {
	cat, q, dm := workload.Example11()
	chain := stats.IdentityChain(dm.Support())
	o := New(cat)
	dynamic, err := o.Optimize(q, Environment{Memory: dm, Chain: chain}, AlgorithmC)
	if err != nil {
		t.Fatal(err)
	}
	static, err := o.Optimize(q, Environment{Memory: dm}, AlgorithmC)
	if err != nil {
		t.Fatal(err)
	}
	if dynamic.ExpectedCost != static.ExpectedCost {
		t.Errorf("identity chain changed expected cost: %v vs %v",
			dynamic.ExpectedCost, static.ExpectedCost)
	}
}

func TestEnvironmentValidation(t *testing.T) {
	o, sql, _ := example11Env()
	if _, err := o.OptimizeSQL(sql, Environment{}); err == nil {
		t.Error("missing memory distribution accepted")
	}
	if _, err := o.OptimizeSQLWith(sql, Environment{Memory: stats.Point(100)}, Strategy(99)); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := o.OptimizeSQL("this is not sql", Environment{Memory: stats.Point(100)}); err == nil {
		t.Error("garbage SQL accepted")
	}
}

func TestStrategyStrings(t *testing.T) {
	for _, s := range append(Strategies(), Strategy(99)) {
		if s.String() == "" {
			t.Errorf("empty string for strategy %d", int(s))
		}
	}
}

func TestParseStrategy(t *testing.T) {
	names := map[Strategy]string{
		LSCMean: "lsc-mean", LSCMode: "lsc-mode",
		AlgorithmA: "a", AlgorithmB: "b", AlgorithmC: "c", AlgorithmD: "d",
	}
	for _, s := range Strategies() {
		name, ok := names[s]
		if !ok {
			t.Fatalf("strategy %v has no flag name in this table", s)
		}
		got, err := ParseStrategy(name)
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, s)
		}
	}
	for _, bad := range []string{"", "bogus", "z", "algorithm-c", "C"} {
		if _, err := ParseStrategy(bad); err == nil {
			t.Errorf("ParseStrategy(%q) accepted", bad)
		}
	}
}

func TestNewWithOptionsRestrictsMethods(t *testing.T) {
	cat, q, dm := workload.Example11()
	o := NewWithOptions(cat, opt.Options{Methods: []cost.Method{cost.SortMerge}})
	d, err := o.Optimize(q, Environment{Memory: dm}, AlgorithmC)
	if err != nil {
		t.Fatal(err)
	}
	plan.Walk(d.Plan, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && j.Method != cost.SortMerge {
			t.Errorf("restricted optimizer used %v", j.Method)
		}
	})
	if o.Catalog() != cat {
		t.Error("Catalog accessor wrong")
	}
}

func TestGroupByThroughFacade(t *testing.T) {
	cat, q, dm := workload.Example11()
	gb := q.Joins[0].Left // A.k
	q2 := *q
	q2.GroupBy = &gb
	ob := gb
	q2.OrderBy = &ob
	o := New(cat)
	env := Environment{Memory: dm}
	d, err := o.Optimize(&q2, env, AlgorithmC)
	if err != nil {
		t.Fatal(err)
	}
	hasAgg := false
	plan.Walk(d.Plan, func(n plan.Node) {
		if _, ok := n.(*plan.Aggregate); ok {
			hasAgg = true
		}
	})
	if !hasAgg {
		t.Errorf("no aggregate in plan:\n%s", d.Explain())
	}
	if d.ExpectedCost <= 0 {
		t.Errorf("expected cost %v", d.ExpectedCost)
	}
	// LSC strategies route through the point-estimate path.
	lsc, err := o.Optimize(&q2, env, LSCMode)
	if err != nil {
		t.Fatal(err)
	}
	if d.ExpectedCost > lsc.ExpectedCost*(1+1e-9) {
		t.Errorf("LEC agg %v worse than LSC agg %v", d.ExpectedCost, lsc.ExpectedCost)
	}
	// SQL round trip with GROUP BY.
	sqlQ, err := o.OptimizeSQLWith(
		"SELECT A.k FROM A, B WHERE A.k = B.k GROUP BY A.k ORDER BY A.k", env, AlgorithmC)
	if err != nil {
		t.Fatal(err)
	}
	if sqlQ.Query.GroupBy == nil {
		t.Error("SQL GROUP BY lost")
	}
}

// TestStrategiesStampEveryDecision: every strategy, plain and GROUP BY,
// ends through the engine's one epilogue. The decision reports the
// enumerator in effect and carries a trace, and each engine session adds
// exactly one run to lec_opt_runs_total — one for a plain block, however
// many buckets a candidate pool searches, and two for GROUP BY (the bare
// join core and the core ordered on the group key).
func TestStrategiesStampEveryDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: 4})
	q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{NumRels: 4, Shape: workload.Chain, OrderBy: true})
	if err != nil {
		t.Fatal(err)
	}
	gq := *q
	gq.GroupBy = &query.ColumnRef{Table: q.Tables[0], Column: "fk"}
	gq.OrderBy = nil
	env := Environment{Memory: stats.MustNew([]float64{200, 900, 4000}, []float64{0.3, 0.4, 0.3})}
	for _, tc := range []struct {
		name     string
		q        *query.SPJ
		sessions float64
	}{{"plain", q, 1}, {"group-by", &gq, 2}} {
		for _, s := range Strategies() {
			m := obs.NewOptMetrics(obs.NewRegistry())
			o := NewWithOptions(cat, Options{Enumeration: EnumConnected, Trace: true, Metrics: m})
			d, err := o.Optimize(tc.q, env, s)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, s, err)
			}
			if d.Enumeration != EnumConnected {
				t.Errorf("%s %v: enumeration %v, want connected", tc.name, s, d.Enumeration)
			}
			if d.Trace == nil {
				t.Errorf("%s %v: no trace", tc.name, s)
			}
			if got := m.Runs.Value(); got != tc.sessions {
				t.Errorf("%s %v: %v runs counted, want %v", tc.name, s, got, tc.sessions)
			}
		}
	}
}
