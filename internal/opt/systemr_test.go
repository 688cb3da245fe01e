package opt

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestTheorem21 verifies that the System R dynamic program returns exactly
// the least-cost left-deep plan for a fixed parameter setting, by
// comparison against exhaustive enumeration (paper Theorem 2.1).
func TestTheorem21(t *testing.T) {
	shapes := []workload.Topology{workload.Chain, workload.Star, workload.Clique}
	for seed := int64(0); seed < 12; seed++ {
		shape := shapes[seed%3]
		orderBy := seed%2 == 0
		cat, q := randInstance(t, seed, 4, shape, orderBy)
		for _, mem := range []float64{20, 300, 5000} {
			dp, err := SystemR(cat, q, Options{}, mem)
			if err != nil {
				t.Fatalf("seed %d mem %v: SystemR: %v", seed, mem, err)
			}
			ex, err := ExhaustiveLSC(cat, q, Options{}, mem)
			if err != nil {
				t.Fatalf("seed %d mem %v: exhaustive: %v", seed, mem, err)
			}
			if relDiff(dp.Cost, ex.Cost) > costTol {
				t.Errorf("seed %d shape %v mem %v: DP cost %v != exhaustive %v\nDP:\n%s\nEX:\n%s",
					seed, shape, mem, dp.Cost, ex.Cost, plan.Explain(dp.Plan), plan.Explain(ex.Plan))
			}
			// The DP's reported cost must equal the plan's actual cost.
			if actual := plan.Cost(dp.Plan, mem); relDiff(dp.Cost, actual) > costTol {
				t.Errorf("seed %d mem %v: reported %v but plan costs %v", seed, mem, dp.Cost, actual)
			}
		}
	}
}

// TestSystemRExample11 reproduces the LSC half of Example 1.1: at the modal
// (2000) and mean (1740) memory values the optimizer picks Plan 1
// (sort-merge, free order), while at 700 pages it picks Plan 2 (Grace hash
// + explicit sort).
func TestSystemRExample11(t *testing.T) {
	cat, q, _ := workload.Example11()
	for _, mem := range []float64{2000, 1740} {
		res, err := SystemR(cat, q, Options{}, mem)
		if err != nil {
			t.Fatal(err)
		}
		j := rootJoin(t, res.Plan)
		if j.Method != cost.SortMerge {
			t.Errorf("at mem=%v: method %v, want sort-merge\n%s", mem, j.Method, plan.Explain(res.Plan))
		}
		if _, isSort := res.Plan.(*plan.Sort); isSort {
			t.Errorf("at mem=%v: explicit sort on top of sort-merge\n%s", mem, plan.Explain(res.Plan))
		}
		if want := 1_400_000 + 2*1_400_000.0; res.Cost != want {
			t.Errorf("at mem=%v: cost %v, want %v", mem, res.Cost, want)
		}
	}
	res, err := SystemR(cat, q, Options{}, 700)
	if err != nil {
		t.Fatal(err)
	}
	j := rootJoin(t, res.Plan)
	if j.Method != cost.GraceHash {
		t.Errorf("at mem=700: method %v, want grace-hash\n%s", j.Method, plan.Explain(res.Plan))
	}
	if want := 1_400_000 + 2*1_400_000 + 6000.0; res.Cost != want {
		t.Errorf("at mem=700: cost %v, want %v", res.Cost, want)
	}
}

// rootJoin digs the topmost join out of a finished plan.
func rootJoin(t *testing.T, n plan.Node) *plan.Join {
	t.Helper()
	for {
		switch v := n.(type) {
		case *plan.Join:
			return v
		case *plan.Sort:
			n = v.Input
		default:
			t.Fatalf("no join in plan:\n%s", plan.Explain(n))
		}
	}
}

func TestSystemRSingleTable(t *testing.T) {
	cat, q := randInstance(t, 3, 1, workload.Chain, false)
	res, err := SystemR(cat, q, Options{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Plan.(*plan.Scan); !ok {
		t.Errorf("single-table plan is %T", res.Plan)
	}
	if res.Cost <= 0 {
		t.Errorf("cost %v", res.Cost)
	}
}

func TestSystemRSingleTableOrderByUsesIndex(t *testing.T) {
	// A table with a clustered index on the ORDER BY column: the index scan
	// delivers the order for free and must beat seq-scan + sort when the
	// sort would spill.
	cat, q, _ := workload.Example11()
	tabA := cat.MustTable("A")
	tabA.Indexes = append(tabA.Indexes, &catalog.Index{
		Name: "A_k", Column: "k", Clustered: true, Height: 3,
	})
	qs := *q
	qs.Tables = []string{"A"}
	qs.Joins = nil
	res, err := SystemR(cat, &qs, Options{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	scan, ok := res.Plan.(*plan.Scan)
	if !ok {
		t.Fatalf("plan is %T:\n%s", res.Plan, plan.Explain(res.Plan))
	}
	if scan.Method != plan.IndexScan {
		t.Errorf("method %v, want index-scan (order for free)", scan.Method)
	}
}

func TestSystemRCounters(t *testing.T) {
	cat, q := randInstance(t, 5, 4, workload.Clique, false)
	res, err := SystemR(cat, q, Options{}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count.CostEvals == 0 || res.Count.PlansBuilt == 0 {
		t.Errorf("counters not incremented: %+v", res.Count)
	}
}

// TestAlgorithmCPointDistEqualsSystemR: the one-bucket special case of LEC
// optimization is the traditional algorithm (paper §4).
func TestAlgorithmCPointDistEqualsSystemR(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cat, q := randInstance(t, seed, 4, workload.Chain, seed%2 == 0)
		for _, mem := range []float64{50, 800} {
			lsc, err := SystemR(cat, q, Options{}, mem)
			if err != nil {
				t.Fatal(err)
			}
			lec, err := AlgorithmC(cat, q, Options{}, stats.Point(mem))
			if err != nil {
				t.Fatal(err)
			}
			if relDiff(lsc.Cost, lec.Cost) > costTol {
				t.Errorf("seed %d mem %v: SystemR %v != AlgorithmC(point) %v", seed, mem, lsc.Cost, lec.Cost)
			}
			if lsc.Plan.Key() != lec.Plan.Key() {
				t.Errorf("seed %d mem %v: different plans:\n%s\nvs\n%s",
					seed, mem, plan.Explain(lsc.Plan), plan.Explain(lec.Plan))
			}
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if len(o.methods()) != len(cost.Methods()) {
		t.Error("default methods not all")
	}
	if o.budget() != DefaultBudget {
		t.Error("defaults wrong")
	}
	o = Options{Methods: []cost.Method{cost.SortMerge}, RebucketBudget: 9}
	if len(o.methods()) != 1 || o.budget() != 9 {
		t.Error("explicit options ignored")
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{CostEvals: 1, PlansBuilt: 2, MergeCombos: 3, MaxMergeCombos: 4}
	b := Counters{CostEvals: 10, PlansBuilt: 20, MergeCombos: 30, MaxMergeCombos: 2}
	a.Add(b)
	if a.CostEvals != 11 || a.PlansBuilt != 22 || a.MergeCombos != 33 || a.MaxMergeCombos != 4 {
		t.Errorf("Add result %+v", a)
	}
}

func TestNoPlanForInvalidQuery(t *testing.T) {
	cat, q := randInstance(t, 1, 3, workload.Chain, false)
	q.Tables = append(q.Tables, "ghost")
	if _, err := SystemR(cat, q, Options{}, 100); err == nil {
		t.Error("SystemR accepted invalid query")
	}
	if _, err := AlgorithmC(cat, q, Options{}, stats.Point(100)); err == nil {
		t.Error("AlgorithmC accepted invalid query")
	}
}
