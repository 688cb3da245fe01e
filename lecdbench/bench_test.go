package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/opt"
)

// stream renders the first phases of a workload's schedule, bodies
// included, exactly as they would go on the wire.
func stream(t *testing.T, w *workloadDef, seed int64) []byte {
	t.Helper()
	rs := newRequestSet(w, seed, benchCatalog())
	sch := &scheduler{rs: rs}
	var b bytes.Buffer
	for _, rate := range []float64{w.rate, 2 * w.rate} {
		shots, err := sch.phaseShots(rate, 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shots {
			_, body, _ := rs.get(sh.id)
			fmt.Fprintf(&b, "%d %d %d %s\n", sh.at, sh.id, sh.node, body)
		}
	}
	return b.Bytes()
}

func TestSameSeedSameRequestStream(t *testing.T) {
	for _, w := range workloads {
		a, b := stream(t, w, 42), stream(t, w, 42)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two streams from seed 42 differ", w.name)
		}
		if bytes.Equal(a, stream(t, w, 43)) {
			t.Errorf("%s: seeds 42 and 43 gave the same stream", w.name)
		}
	}
}

func TestCatalogFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "catalog.txt")
	want := benchCatalog()
	if err := writeCatalog(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := loadCatalog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range want.Names() {
		a, b := want.MustTable(name), got.MustTable(name)
		if a.Rows != b.Rows || a.Pages != b.Pages || len(a.Columns) != len(b.Columns) || len(a.Indexes) != len(b.Indexes) {
			t.Fatalf("table %s changed in the round trip: %+v vs %+v", name, a, b)
		}
		for i := range a.Columns {
			if *a.Columns[i] != *b.Columns[i] {
				t.Fatalf("column %s.%s changed: %+v vs %+v", name, a.Columns[i].Name, a.Columns[i], b.Columns[i])
			}
		}
	}
}

func TestOracleRejectsPerturbedCost(t *testing.T) {
	w, _ := findWorkload("cold-miss")
	cat := benchCatalog()
	rs := newRequestSet(w, 5, cat)
	o := newOracle(cat, w)
	if err := o.reference(rs, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		ref := o.ref[id]
		if msg := check(wireResp{ExpectedCost: ref}, ref); msg != "" {
			t.Errorf("exact cost rejected: %s", msg)
		}
		for _, f := range []float64{1 + 1e-6, 1 - 1e-6, 2} {
			if check(wireResp{ExpectedCost: ref * f}, ref) == "" {
				t.Errorf("request %d: cost perturbed by %v accepted", id, f)
			}
		}
		greedy := wireResp{ExpectedCost: ref * (1 + opt.DefaultTierMaxGap/2), Tier: "greedy"}
		if msg := check(greedy, ref); msg != "" {
			t.Errorf("greedy plan within the gap rejected: %s", msg)
		}
		greedy.ExpectedCost = ref * (1 + 2*opt.DefaultTierMaxGap)
		if check(greedy, ref) == "" {
			t.Errorf("greedy plan beyond (1+MaxGap)·OPT accepted")
		}
		escalated := wireResp{ExpectedCost: ref * (1 + 1e-6), Tier: "dp"}
		if check(escalated, ref) == "" {
			t.Errorf("escalated plan off the reference accepted")
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// A server that stalls every request for its first 60ms must show as
// generator lateness and as latency counted from the scheduled send time,
// not from when the request finally went out.
func TestStalledServerShowsAsLateness(t *testing.T) {
	var stallUntil atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Until(time.Unix(0, stallUntil.Load())))
		w.Write([]byte(`{"expected_cost": 1}`))
	}))
	defer srv.Close()
	w, _ := findWorkload("hot-hits")
	f := &fleetProc{addrs: []string{strings.TrimPrefix(srv.URL, "http://")}}
	rs := newRequestSet(w, 1, benchCatalog())
	g := newGenerator(f, rs)
	defer g.close()
	var shots []shot
	for i := 0; i < 40; i++ {
		shots = append(shots, shot{at: time.Duration(i) * 2 * time.Millisecond, id: i % w.hotKeys})
		if _, _, err := rs.get(i % w.hotKeys); err != nil {
			t.Fatal(err)
		}
	}
	stallUntil.Store(time.Now().Add(60 * time.Millisecond).UnixNano())
	outs := g.run(shots, time.Second)
	// Shot 10 is due at 20ms; every connection is stalled until 60ms.
	o := outs[10]
	if !o.ok() {
		t.Fatalf("shot 10 failed: status %d", o.status)
	}
	if o.lateness < 20*time.Millisecond {
		t.Errorf("shot 10 lateness %v, want at least 20ms behind schedule", o.lateness)
	}
	if o.latency < o.lateness+time.Microsecond {
		t.Errorf("latency %v does not include lateness %v", o.latency, o.lateness)
	}
	// Long after the stall the generator is back on schedule.
	if late := outs[39].lateness; late > 10*time.Millisecond {
		t.Errorf("shot 39 still %v late", late)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10}
	shift := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, x := range parent {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		change []float64
		want   string
	}{
		{shift(1), "unchanged"},
		{shift(0.8), "improved"},
		{shift(1.3), "worse"},
	}
	for _, c := range cases {
		if v, _ := verdict(parent, c.change, true, 0.1); v != c.want {
			t.Errorf("verdict = %s, want %s", v, c.want)
		}
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	if v, _ := verdict(noisy, noisy, true, 0.1); v != "unresolved" {
		t.Errorf("wide parent spread: verdict %s, want unresolved", v)
	}
}

// The metric tables here and BENCHMARK.json must name the same metrics
// with the same units.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	spec, err := readBenchSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, d := range endToEnd {
		if !ungated[d.name] {
			e2e = append(e2e, d.name+" "+d.unit)
		}
	}
	var got []string
	for _, m := range spec.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
	}
	if strings.Join(got, ",") != strings.Join(e2e, ",") {
		t.Errorf("end_to_end in BENCHMARK.json %v, tables %v", got, e2e)
	}
	var layers, gotLayers []string
	for _, d := range perLayer {
		layers = append(layers, d.name+" "+d.unit)
	}
	for _, m := range spec.PerLayer {
		gotLayers = append(gotLayers, m.Name+" "+m.Unit)
	}
	if strings.Join(gotLayers, ",") != strings.Join(layers, ",") {
		t.Errorf("per_layer in BENCHMARK.json %v, tables %v", gotLayers, layers)
	}
	raw, _ := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	var top struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if len(top.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(top.Workloads), len(workloads))
	}
	for i, w := range top.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}
