// Command lecdbench is the end-to-end and per-layer benchmark of the lecd
// serving daemon. It builds nothing itself; run.sh builds cmd/lecd and this
// command from the checkout and then runs
//
//	lecdbench -lecd <binary> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it launches the real lecd binary (metrics on, the
// workload's deployed flags), drives it over loopback HTTP from an
// open-loop generator, checks every response against an in-process oracle
// and reports the end-to-end metrics. With --trace 1 it adds a serial
// replay with spans around calls into each layer's public functions and
// reports the per-layer metrics. The last line of standard output is the
// result as one JSON object; the full result, with the run fingerprint, is
// also written under .bench_build/results.
//
//	lecdbench -compare <parent results dir> <change results dir>
//
// compares two sets of result files metric by metric.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric, its unit, and whether higher reads
// better.
type metricDef struct {
	name, unit string
	higher     bool
}

// endToEnd are the metrics a user of lecd sees, measured with tracing off.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms", false},
	{"latency_p90_ms", "ms", false},
	{"max_rate_rps", "1/s", true},
	{"server_cpu_us_per_req", "us", false},
	{"error_rate", "ratio", false},
	{"plan_cost_ratio", "ratio", false},
	{"setup_s", "s", false},
	{"peak_rss_mb", "MiB", false},
}

// ungated end-to-end metrics are printed, recorded and compared, but left
// out of the JSON result line, which carries only what a relative bound can
// gate on a shared host:
//   - error_rate is zero on a healthy run; the line's attempted and failed
//     carry the same information;
//   - max_rate_rps measures the saturated host; over ten runs on a shared
//     2-vCPU VM its quartiles spread by a fifth to a third of the median,
//     wider than any bound the benchmark may set;
//   - latency_p50_ms and latency_p90_ms are wall-clock: in a set of runs
//     taken while the hypervisor stole ~7% of the host's CPU they spread
//     by 0.4 to 1.0 of the median and their medians rose by up to 55%,
//     while CPU time per request, which steal does not count, stayed
//     within 0.12.
var ungated = map[string]bool{
	"error_rate": true, "max_rate_rps": true, "latency_p50_ms": true, "latency_p90_ms": true,
}

// perLayer are the traced run's metrics, by the module they measure.
var perLayer = []metricDef{
	{name: "lecd.roundtrip_us_p50", unit: "us"},
	{name: "lecd.healthz_us_p50", unit: "us"},
	{name: "lecd.self_us_p50", unit: "us"},
	{name: "lecd.resp_bytes", unit: "bytes"},
	{name: "lec.explain_us_p50", unit: "us"},
	{name: "sqlparse.bind_us_p50", unit: "us"},
	{name: "sqlparse.bind_allocs_per_op", unit: "count"},
	{name: "serve.canonicalize_us_p50", unit: "us"},
	{name: "serve.hit_us_p50", unit: "us"},
	{name: "serve.hit_allocs_per_op", unit: "count"},
	{name: "serve.miss_overhead_us_p50", unit: "us"},
	{name: "serve.cache_hit_ratio", unit: "ratio"},
	{name: "serve.engine_runs_per_req", unit: "ratio"},
	{name: "serve.coalesced_ratio", unit: "ratio"},
	{name: "serve.pressure_degraded_ratio", unit: "ratio"},
	{name: "serve.shed_ratio", unit: "ratio"},
	{name: "lec.optimize_us_p50", unit: "us"},
	{name: "lec.optimize_us_p90", unit: "us"},
	{name: "opt.metrics_off_us_p50", unit: "us"},
	{name: "opt.metrics_overhead_ratio", unit: "ratio"},
	{name: "opt.cost_evals_per_req", unit: "count"},
	{name: "opt.subsets_per_req", unit: "count"},
	{name: "opt.memo_hits_per_req", unit: "count"},
	{name: "opt.prunes_per_req", unit: "count"},
	{name: "opt.allocs_per_req", unit: "count"},
	{name: "opt.bytes_per_req", unit: "bytes"},
	{name: "opt.enumeration_share", unit: "ratio"},
	{name: "opt.costing_share", unit: "ratio"},
	{name: "opt.bucketing_share", unit: "ratio"},
	{name: "opt.tier_greedy_us_p50", unit: "us"},
	{name: "opt.tier_escalated_us_p50", unit: "us"},
	{name: "opt.tier_greedy_served_ratio", unit: "ratio"},
	{name: "opt.subsets_skipped_per_req", unit: "count"},
	{name: "fleet.peer_hit_ratio", unit: "ratio"},
	{name: "fleet.peer_hop_us_p50", unit: "us"},
	{name: "fleet.fell_back_ratio", unit: "ratio"},
	{name: "fleet.hedged_ratio", unit: "ratio"},
	{name: "fleet.engine_runs_per_bump_key", unit: "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the JSON object printed as the last line of standard output.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is one run's full record, written to the results directory.
type result struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Trace       int                    `json:"trace"`
	Fingerprint fingerprint            `json:"fingerprint"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Mismatches  []string               `json:"mismatches,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	// Notes holds sample counts, the bases of ratios, and the timed
	// phase's layer counters.
	Notes map[string]float64 `json:"notes"`
	Steps []stepResult       `json:"rate_search,omitempty"`
}

// fingerprint identifies the code, host and settings a result came from.
type fingerprint struct {
	Commit         string   `json:"commit"`
	GoVersion      string   `json:"go_version"`
	NProc          int      `json:"nproc"`
	GOMAXPROCS     int      `json:"gomaxprocs"`
	CPUModel       string   `json:"cpu_model"`
	Seed           int64    `json:"seed"`
	LecdFlags      []string `json:"lecd_flags"`
	FixedRate      float64  `json:"fixed_rate_rps"`
	P90LimitMS     float64  `json:"p90_limit_ms"`
	GenLatenessP90 float64  `json:"generator_lateness_p90_ms"`
	// HostStealPct is the share of host CPU time the hypervisor gave to
	// other guests during the fixed phase. Wall-clock latencies move with
	// it; CPU time per request hardly does.
	HostStealPct    float64 `json:"host_steal_pct"`
	RunSeconds      float64 `json:"run_seconds"`
	BenchmarkDigest string  `json:"benchmark_digest"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lecdbench:", err)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fl := flag.NewFlagSet("lecdbench", flag.ContinueOnError)
	lecd := fl.String("lecd", "", "path to the lecd binary under test")
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 20, "measured seconds per run")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer replay instead of the timed run")
	outDir := fl.String("out", ".bench_build", "directory for catalogs, logs, traces and results")
	compare := fl.Bool("compare", false, "compare two results directories: -compare <parent> <change>")
	if err := fl.Parse(args); err != nil {
		return 2, err
	}
	if *compare {
		if fl.NArg() != 2 {
			return 2, errors.New("-compare needs two results directories")
		}
		return compareDirs(out, fl.Arg(0), fl.Arg(1))
	}
	if *lecd == "" {
		return 2, errors.New("-lecd is required")
	}
	w, err := findWorkload(*name)
	if err != nil {
		return 2, err
	}
	if *seconds < 1 {
		return 2, errors.New("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return 2, errors.New("--trace must be 0 or 1")
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	debug.SetMemoryLimit(1 << 30)
	dir := filepath.Join(*outDir, "runs", fmt.Sprintf("%s-s%d-t%d-p%d", w.name, *seed, *trace, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 1, err
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, lecd: *lecd, dir: dir, outDir: *outDir}
	var res *result
	if *trace == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runTimed(cfg)
	}
	if err != nil {
		return 1, err
	}
	res.Fingerprint.Commit = sourceDigest(".")
	res.Fingerprint.BenchmarkDigest = sourceDigest("lecdbench")
	if err := writeResult(*outDir, res); err != nil {
		return 1, err
	}
	printResult(out, res)
	if !res.Correct {
		return 1, fmt.Errorf("%d oracle mismatches, first: %s", len(res.Mismatches), res.Mismatches[0])
	}
	return 0, nil
}

type runConfig struct {
	w       *workloadDef
	seed    int64
	seconds float64
	lecd    string
	dir     string
	outDir  string
}

func newFingerprint(cfg runConfig, f *fleetProc) fingerprint {
	fp := fingerprint{
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Seed:       cfg.seed,
		FixedRate:  cfg.w.rate,
		P90LimitMS: ms(cfg.w.p90Limit),
		RunSeconds: cfg.seconds,
	}
	if len(f.args) > 0 {
		fp.LecdFlags = f.args[0]
	}
	return fp
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the code under test: the git commit when the
// checkout is a repository, else a hash of every Go source and module file
// under root (build outputs excluded).
func sourceDigest(root string) string {
	if root == "." {
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(b))
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod") || strings.HasSuffix(p, ".sh")) {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("src-%x", h.Sum(nil)[:8])
}

func writeResult(outDir string, res *result) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", res.Workload, res.Seed, res.Trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// printResult prints every metric by name and unit, the fingerprint, and
// then the JSON line: the end-to-end metrics of BENCHMARK.json on a timed
// run, the per-layer metrics on a traced one.
func printResult(out io.Writer, res *result) {
	defs := endToEnd
	if res.Trace == 1 {
		defs = perLayer
	}
	fmt.Fprintf(out, "workload %s seed %d trace %d: correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Trace, res.Correct, res.Attempted, res.Failed)
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
	fp, _ := json.Marshal(res.Fingerprint)
	fmt.Fprintf(out, "fingerprint %s\n", fp)
	l := line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		if res.Trace == 1 || !ungated[d.name] {
			l.Metrics[d.name] = res.Metrics[d.name]
		}
	}
	b, _ := json.Marshal(l)
	fmt.Fprintf(out, "%s\n", b)
}

func setMetrics(defs []metricDef, vals map[string]float64) map[string]metricValue {
	m := map[string]metricValue{}
	for _, d := range defs {
		m[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return m
}
