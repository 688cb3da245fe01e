package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/sqlparse"
	"repro/lec"
)

// span is one timed call into a layer. Spans of one replayed request share
// Req; Parent links a span to the one that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, req, parent int, fn func()) time.Duration {
	s := span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name}
	start := time.Now()
	fn()
	end := time.Now()
	s.Start, s.End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, s)
	return end.Sub(start)
}

// add records a span of duration d that ended now, for a call timed by
// its own clock.
func (t *tracer) add(name string, req, parent int, d time.Duration) {
	end := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: end - d.Nanoseconds(), End: end})
}

// durations lists the durations in µs of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// byReq maps request -> duration in µs of its span named name.
func (t *tracer) byReq(name string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Req] = float64(s.End-s.Start) / 1e3
		}
	}
	return out
}

// selfTimes derives each span's self time — its duration minus the part
// its child spans cover — and returns the p50 per span name.
func (t *tracer) selfTimes() map[string]float64 {
	child := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string][]float64{}
	for _, s := range t.spans {
		self[s.Name] = append(self[s.Name], float64(s.End-s.Start-child[s.ID])/1e3)
	}
	out := map[string]float64{}
	for name, xs := range self {
		out[name] = median(xs)
	}
	return out
}

// pairedDiff is the p50 over requests of a[req] − b[req], for requests
// that have both spans.
func pairedDiff(a, b map[int]float64) (float64, bool) {
	var d []float64
	for req, x := range a {
		if y, ok := b[req]; ok {
			d = append(d, x-y)
		}
	}
	return percentile(d, 0.5)
}

// p50 reports the median of xs when the percentile helper accepts the
// sample, else 0: a layer the workload does not cross reads 0.
func p50(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// allocsPer measures heap allocations and bytes per call of fn over n
// calls, in this goroutine with nothing else running.
func allocsPer(n int, fn func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// runTraced is the per-layer run. It launches lecd like the timed run and
// then:
//  1. plays the fixed-rate phase open-loop (30% of the run) and a short
//     max-rate search (30%), for the counters that need concurrent load:
//     cache hit ratio, engine runs, coalescing, fleet flags, and pressure
//     and shedding at the top of the search;
//  2. replays the workload serially over HTTP and through an in-process
//     serve.Service configured like lecd, with spans around each call;
//  3. runs the engine in process, metrics on and off, over the distinct
//     requests;
//  4. on a fleet, bumps the catalog generation and counts engine runs per
//     hot key.
//
// Every response is checked by the oracle, as in the timed run.
func runTraced(cfg runConfig) (*result, error) {
	w := cfg.w
	s, err := startSession(cfg)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	total := time.Duration(cfg.seconds * float64(time.Second))
	vals := map[string]float64{}

	served := lec.Options{Enumeration: w.enum, Tier: w.tier}
	svc := serve.New(s.rs.cat, serve.Config{Options: served, Metrics: obs.NewRegistry()})
	if err := checkConfig(s.f, svc); err != nil {
		return nil, err
	}

	// 1. Concurrent phases.
	fixed, err := s.runFixed(total * 3 / 10)
	if err != nil {
		return nil, err
	}
	for k, v := range fixed.layerCounters() {
		vals[k] = v
	}
	_, steps, err := searchMaxRate(s.g, s.sch, searchStart(w, fixed.cpuPerReq()), total*3/10, s.record)
	if err != nil {
		return nil, err
	}
	if len(steps) > 0 {
		top := steps[len(steps)-1]
		for _, st := range steps {
			if !st.Pass {
				top = st // the first failing rate is the top of the search
				break
			}
		}
		if top.Requests > 0 {
			vals["serve.pressure_degraded_ratio"] = float64(top.PressureDegraded) / float64(top.Requests)
			vals["serve.shed_ratio"] = float64(top.Shed) / float64(top.Requests)
		}
	}

	// 2. Serial replay. The in-process service sees the same warm-up and
	// request sequence as lecd, so it hits and misses where lecd does.
	tr := &tracer{t0: time.Now()}
	ctx := context.Background()
	request := func(id int) (serve.Request, spec) {
		sp, _, _ := s.rs.get(id)
		env, err := envOf(sp)
		if err != nil {
			panic(err) // specs are generated; a bad one is a benchmark bug
		}
		return serve.Request{SQL: sp.SQL, Env: env, Strategy: lec.AlgorithmC}, sp
	}
	warm := warmSet(w)
	for _, id := range warm {
		req, _ := request(id)
		if _, err := svc.Optimize(ctx, req); err != nil {
			return nil, err
		}
	}
	replay, err := s.sch.phaseShots(w.rate, replayLen(w))
	if err != nil {
		return nil, err
	}
	onOpts := served
	onOpts.Metrics = obs.NewOptMetrics(obs.NewRegistry())
	var respBytes []float64
	var peerRT, localRT []float64
	for k, sh := range replay {
		req, sp := request(sh.id)
		root := len(tr.spans) + 1
		tr.spans = append(tr.spans, span{ID: root, Req: k, Name: "request", Start: time.Since(tr.t0).Nanoseconds()})
		o := s.g.serial(sh.node, sh.id)
		tr.add("lecd.roundtrip", k, root, o.latency)
		if o.ok() {
			s.record([]shot{sh}, []outcome{o})
			respBytes = append(respBytes, float64(len(o.body)))
			rt := ms(o.latency) * 1e3
			switch {
			case o.resp.PeerHit:
				peerRT = append(peerRT, rt)
			case o.resp.Cached:
				localRT = append(localRT, rt)
			}
		}
		var q *query.SPJ
		tr.do("sqlparse.ParseAndBind", k, root, func() { q, _ = sqlparse.ParseAndBind(sp.SQL, s.rs.cat) })
		tr.do("serve.Canonicalize", k, root, func() { svc.Canonicalize(req) })
		var resp *serve.Response
		var serr error
		tr.do("serve.Optimize", k, root, func() { resp, serr = svc.Optimize(ctx, req) })
		if serr != nil {
			return nil, fmt.Errorf("in-process serve.Optimize: %w", serr)
		}
		if !resp.Cached && !resp.Coalesced && q != nil {
			tr.do("lec.OptimizeContext", k, root, func() {
				lec.NewWithOptions(s.rs.cat, onOpts).OptimizeContext(ctx, q, req.Env, req.Strategy)
			})
		}
		tr.do("lec.Decision.Explain", k, root, func() { resp.Decision.Explain() })
		tr.spans[root-1].End = time.Since(tr.t0).Nanoseconds()
	}
	vals["lecd.roundtrip_us_p50"] = p50(tr.durations("lecd.roundtrip"))
	rt := tr.byReq("lecd.roundtrip")
	vals["lecd.self_us_p50"], _ = pairedDiff(rt, tr.byReq("serve.Optimize"))
	vals["lecd.resp_bytes"] = mean(respBytes)
	vals["lec.explain_us_p50"] = p50(tr.durations("lec.Decision.Explain"))
	vals["sqlparse.bind_us_p50"] = p50(tr.durations("sqlparse.ParseAndBind"))
	vals["serve.canonicalize_us_p50"] = p50(tr.durations("serve.Canonicalize"))
	missSvc, missEngine := map[int]float64{}, tr.byReq("lec.OptimizeContext")
	for req, d := range tr.byReq("serve.Optimize") {
		if _, ok := missEngine[req]; ok {
			missSvc[req] = d
		}
	}
	vals["serve.miss_overhead_us_p50"], _ = pairedDiff(missSvc, missEngine)
	if w.nodes > 1 {
		if pp, ok := percentile(peerRT, 0.5); ok {
			if lp, ok := percentile(localRT, 0.5); ok {
				vals["fleet.peer_hop_us_p50"] = pp - lp
			}
		}
	}

	// Transport floor.
	for i := 0; i < 400; i++ {
		var herr error
		tr.do("lecd.healthz", -1, 0, func() { herr = getHealthz(s.g.clients[0], s.f.addrs[0]) })
		if herr != nil {
			return nil, herr
		}
	}
	vals["lecd.healthz_us_p50"] = p50(tr.durations("lecd.healthz"))

	// Cache-hit path and bind allocations, over the warm (cached) set.
	var warmReqs []serve.Request
	var warmSQL []string
	for _, id := range warm {
		req, sp := request(id)
		warmReqs = append(warmReqs, req)
		warmSQL = append(warmSQL, sp.SQL)
	}
	for i := 0; i < 400; i++ {
		req := warmReqs[i%len(warmReqs)]
		tr.do("serve.Optimize.hit", -1, 0, func() { svc.Optimize(ctx, req) })
	}
	vals["serve.hit_us_p50"] = p50(tr.durations("serve.Optimize.hit"))
	vals["serve.hit_allocs_per_op"], _ = allocsPer(400, func(i int) { svc.Optimize(ctx, warmReqs[i%len(warmReqs)]) })
	vals["sqlparse.bind_allocs_per_op"], _ = allocsPer(400, func(i int) { sqlparse.ParseAndBind(warmSQL[i%len(warmSQL)], s.rs.cat) })

	// 3. The engine in process over the distinct requests.
	if err := engineLayers(s, tr, served, replay, vals); err != nil {
		return nil, err
	}

	// 4. Fleet generation bumps.
	if w.nodes > 1 {
		v, err := runsPerBumpKey(s)
		if err != nil {
			return nil, err
		}
		vals["fleet.engine_runs_per_bump_key"] = v
	}

	fp := newFingerprint(cfg, s.f)
	fp.GenLatenessP90, _ = percentile(summarize(fixed.outs, cfg.w.p90Limit).lateness, 0.9)
	fp.HostStealPct = fixed.stealPct
	s.stop()
	_, bad, err := s.verify()
	if err != nil {
		return nil, err
	}
	if err := writeTrace(cfg, tr); err != nil {
		return nil, err
	}
	notes := map[string]float64{
		"replayed": float64(len(replay)),
		// Bases of the derived self times.
		"base.roundtrip_us_p50":      vals["lecd.roundtrip_us_p50"],
		"base.serve_optimize_us_p50": p50(tr.durations("serve.Optimize")),
		"base.metrics_on_us_p50":     vals["lec.optimize_us_p50"],
		"base.metrics_off_us_p50":    vals["opt.metrics_off_us_p50"],
	}
	for name, v := range tr.selfTimes() {
		notes["self_us_p50."+name] = v
	}
	ps := summarize(fixed.outs, cfg.w.p90Limit)
	return &result{
		Workload: w.name, Seed: cfg.seed, Trace: 1, Fingerprint: fp,
		Correct: len(bad) == 0, Attempted: ps.attempted, Failed: ps.failed + len(bad),
		Mismatches: bad, Metrics: setMetrics(perLayer, vals), Notes: notes, Steps: steps,
	}, nil
}

// replayLen is the span of the fixed-rate schedule the serial replay
// takes its requests from.
func replayLen(w *workloadDef) time.Duration {
	if w.hotKeys > 0 {
		return time.Duration(float64(time.Second) * 1000 / w.rate)
	}
	return time.Duration(float64(time.Second) * 200 / w.rate)
}

// engineLayers runs lec.Optimizer.OptimizeContext in process with the
// served options, metrics on and off alternately, over the replay's
// distinct requests until there are enough samples for a p90.
func engineLayers(s *session, tr *tracer, served lec.Options, replay []shot, vals map[string]float64) error {
	ctx := context.Background()
	type job struct {
		q   *query.SPJ
		env lec.Environment
	}
	seen := map[int]bool{}
	var jobs []job
	for _, sh := range replay {
		if seen[sh.id] {
			continue
		}
		seen[sh.id] = true
		sp, _, _ := s.rs.get(sh.id)
		q, err := sqlparse.ParseAndBind(sp.SQL, s.rs.cat)
		if err != nil {
			return err
		}
		env, err := envOf(sp)
		if err != nil {
			return err
		}
		jobs = append(jobs, job{q, env})
	}
	reg := obs.NewRegistry()
	on := served
	on.Metrics = obs.NewOptMetrics(reg)
	off := served
	onOpt, offOpt := lec.NewWithOptions(s.rs.cat, on), lec.NewWithOptions(s.rs.cat, off)

	var onUS, offUS, ratio, greedyUS, escUS []float64
	var counts struct{ cost, subsets, memo, prunes, skipped, greedy float64 }
	for pass := 0; pass == 0 || len(onUS) < 200; pass++ {
		for _, j := range jobs {
			var d *lec.Decision
			var err error
			ton := tr.do("lec.OptimizeContext.metrics_on", -1, 0, func() {
				d, err = onOpt.OptimizeContext(ctx, j.q, j.env, lec.AlgorithmC)
			})
			if err != nil {
				return fmt.Errorf("in-process optimize: %w", err)
			}
			toff := tr.do("lec.OptimizeContext.metrics_off", -1, 0, func() {
				offOpt.OptimizeContext(ctx, j.q, j.env, lec.AlgorithmC)
			})
			us := float64(ton) / 1e3
			onUS = append(onUS, us)
			offUS = append(offUS, float64(toff)/1e3)
			ratio = append(ratio, float64(ton)/float64(toff))
			switch d.Tier {
			case "greedy":
				greedyUS = append(greedyUS, us)
			case "dp":
				escUS = append(escUS, us)
			}
			if pass == 0 {
				st := d.Stats
				counts.cost += float64(st.CostEvals)
				counts.subsets += float64(st.Subsets)
				counts.memo += float64(st.MemoHits)
				counts.prunes += float64(st.Prunes)
				counts.skipped += float64(st.SubsetsSkipped)
				if d.Tier == "greedy" {
					counts.greedy++
				}
			}
		}
	}
	n := float64(len(jobs))
	vals["lec.optimize_us_p50"] = p50(onUS)
	vals["lec.optimize_us_p90"], _ = percentile(onUS, 0.9)
	vals["opt.metrics_off_us_p50"] = p50(offUS)
	vals["opt.metrics_overhead_ratio"] = p50(ratio)
	vals["opt.cost_evals_per_req"] = counts.cost / n
	vals["opt.subsets_per_req"] = counts.subsets / n
	vals["opt.memo_hits_per_req"] = counts.memo / n
	vals["opt.prunes_per_req"] = counts.prunes / n
	vals["opt.subsets_skipped_per_req"] = counts.skipped / n
	vals["opt.tier_greedy_us_p50"] = p50(greedyUS)
	vals["opt.tier_escalated_us_p50"] = p50(escUS)
	if served.Tier != lec.TierDP {
		vals["opt.tier_greedy_served_ratio"] = counts.greedy / n
	}
	vals["opt.allocs_per_req"], vals["opt.bytes_per_req"] = allocsPer(len(jobs), func(i int) {
		onOpt.OptimizeContext(ctx, jobs[i].q, jobs[i].env, lec.AlgorithmC)
	})
	// Enumeration is the run time outside costing; bucketing is inside
	// costing.
	enum, costing, bucket := on.Metrics.EnumerationSeconds.Sum(), on.Metrics.CostingSeconds.Sum(), on.Metrics.BucketingSeconds.Sum()
	if t := enum + costing; t > 0 {
		vals["opt.enumeration_share"] = enum / t
		vals["opt.costing_share"] = (costing - bucket) / t
		vals["opt.bucketing_share"] = bucket / t
	}
	return nil
}

// runsPerBumpKey bumps the fleet's catalog generation at alternating nodes
// and after each bump requests every hot key once at each node; engine
// runs summed over both nodes, per bump and hot key, should read 1.
func runsPerBumpKey(s *session) (float64, error) {
	const bumps = 3
	before, err := s.f.sumStats()
	if err != nil {
		return 0, err
	}
	for b := 0; b < bumps; b++ {
		s.g.bumpGen++
		if err := s.f.bump(b%len(s.f.addrs), s.g.bumpGen); err != nil {
			return 0, err
		}
		for id := 0; id < s.rs.w.hotKeys; id++ {
			for node := range s.f.addrs {
				o := s.g.serial(node, id)
				if !o.ok() {
					return 0, fmt.Errorf("fleet replay: request %d at node %d: status %d", id, node, o.status)
				}
				s.record([]shot{{id: id, node: node}}, []outcome{o})
			}
		}
	}
	after, err := s.f.sumStats()
	if err != nil {
		return 0, err
	}
	return float64(after.Optimizations-before.Optimizations) / float64(bumps*s.rs.w.hotKeys), nil
}

// checkConfig confirms that the in-process service is configured like the
// lecd processes: same tier, enumerator and parallelism ceiling.
func checkConfig(f *fleetProc, svc *serve.Service) error {
	want := svc.Stats()
	for i := range f.addrs {
		got, err := f.stats(i)
		if err != nil {
			return err
		}
		if got.Tier != want.Tier || got.Enumeration != want.Enumeration || got.ConfiguredParallelism != want.ConfiguredParallelism {
			return fmt.Errorf("lecd node %d serves tier=%s enum=%s parallelism=%d, the in-process replay tier=%s enum=%s parallelism=%d",
				i, got.Tier, got.Enumeration, got.ConfiguredParallelism, want.Tier, want.Enumeration, want.ConfiguredParallelism)
		}
	}
	return nil
}

func getHealthz(c *http.Client, addr string) error {
	resp, err := c.Get("http://" + addr + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

func writeTrace(cfg runConfig, tr *tracer) error {
	dir := filepath.Join(cfg.outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.json", cfg.w.name, cfg.seed, time.Now().UnixNano())), b, 0o644)
}
