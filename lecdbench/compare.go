package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the compare mode reads: each
// end-to-end metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readResults loads every timed-run result file in dir, by workload.
func readResults(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, nil
}

// verdict classifies one workload × metric comparison of parent runs a and
// change runs b, where lower says whether lower is better:
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - improved: the change wins at least 9 of 10 pairs and the medians
//     differ, in its favour, by more than the parent's quartile spread;
//   - unresolved: the parent's own spread exceeds the bound, unless every
//     change run reads better than every parent run;
//   - unchanged otherwise.
//
// won is the share of pairs the change won (ties count for neither).
func verdict(a, b []float64, lower bool, bound float64) (v string, won float64) {
	better := func(x, y float64) bool {
		if lower {
			return x < y
		}
		return x > y
	}
	n := min(len(a), len(b))
	wins := 0
	for i := 0; i < n; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if n > 0 {
		won = float64(wins) / float64(n)
	}
	a1, am, a3 := quartiles(a)
	_, bm, _ := quartiles(b)
	worse := (bm - am) / am
	if !lower {
		worse = -worse
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case worse > bound:
		return "worse", won
	case n > 0 && won >= 0.9 && better(bm, am) && math.Abs(bm-am) > a3-a1:
		return "improved", won
	case (a3-a1)/am > bound && !allBetter:
		return "unresolved", won
	}
	return "unchanged", won
}

// maxBound is the widest regression bound the benchmark sets; ungated
// metrics are judged against it, so their wide spread reads unresolved.
const maxBound = 0.25

// compareDirs prints, for every workload × end-to-end metric, the medians
// and quartiles of both sides, the share of pairs the change won, and a
// verdict. Runs pair by seed order. Bounds and directions come from
// BENCHMARK.json. It exits 1 when any gated metric reads worse.
func compareDirs(out io.Writer, parentDir, changeDir string) (int, error) {
	spec, err := readBenchSpec("BENCHMARK.json")
	if err != nil {
		return 2, err
	}
	pa, err := readResults(parentDir)
	if err != nil {
		return 2, err
	}
	ch, err := readResults(changeDir)
	if err != nil {
		return 2, err
	}
	var names []string
	for name := range pa {
		if _, ok := ch[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return 2, fmt.Errorf("no workload has results in both %s and %s", parentDir, changeDir)
	}
	code := 0
	fmt.Fprintf(out, "%-12s %-22s %12s %25s %12s %25s %6s  %s\n", "workload", "metric", "parent p50", "parent [q1, q3]", "change p50", "change [q1, q3]", "won", "verdict")
	for _, wl := range names {
		for _, m := range endToEnd {
			if m.name == "error_rate" {
				continue // zero on a healthy run; judged by failed counts
			}
			lower, bound := !m.higher, maxBound
			for _, g := range spec.EndToEnd {
				if g.Name == m.name {
					lower, bound = g.Better == "lower", g.Bound
				}
			}
			values := func(rs []*result) []float64 {
				var xs []float64
				for _, r := range rs {
					if v, ok := r.Metrics[m.name]; ok {
						xs = append(xs, v.Value)
					}
				}
				return xs
			}
			a, b := values(pa[wl]), values(ch[wl])
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, won := verdict(a, b, lower, bound)
			if v == "worse" && !ungated[m.name] {
				code = 1
			}
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			fmt.Fprintf(out, "%-12s %-22s %12.5g %25s %12.5g %25s %5.0f%%  %s\n", wl, m.name,
				am, fmt.Sprintf("[%.5g, %.5g]", a1, a3), bm, fmt.Sprintf("[%.5g, %.5g]", b1, b3), 100*won, v)
		}
	}
	return code, nil
}
