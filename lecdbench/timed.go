package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// setupRounds is how many times a run launches lecd and warms it; setup_s
// is the median, and the last launch is the one measured.
const setupRounds = 5

// session is one run's launched fleet, generator and bookkeeping.
type session struct {
	cfg   runConfig
	rs    *requestSet
	f     *fleetProc
	g     *generator
	sch   *scheduler
	setup []float64
	// recorded outcomes, for the oracle.
	ids  []int
	outs []*outcome
}

// startSession writes the catalog file, then launches and warms lecd
// setupRounds times, keeping the last launch.
func startSession(cfg runConfig) (*session, error) {
	catPath := filepath.Join(cfg.dir, "catalog.txt")
	if err := writeCatalog(catPath, benchCatalog()); err != nil {
		return nil, err
	}
	cat, err := loadCatalog(catPath)
	if err != nil {
		return nil, fmt.Errorf("reload catalog: %w", err)
	}
	s := &session{cfg: cfg, rs: newRequestSet(cfg.w, cfg.seed, cat)}
	s.sch = &scheduler{rs: s.rs}
	warm := warmSet(cfg.w)
	for _, id := range warm {
		if _, _, err := s.rs.get(id); err != nil {
			return nil, err
		}
	}
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		f, err := startFleet(cfg.lecd, catPath, cfg.w, cfg.dir)
		if err != nil {
			return nil, err
		}
		g := newGenerator(f, s.rs)
		for i, id := range warm {
			o := g.serial(i%len(f.addrs), id)
			if round == setupRounds-1 {
				s.record([]shot{{id: id}}, []outcome{o})
			}
		}
		s.setup = append(s.setup, time.Since(t0).Seconds())
		if round < setupRounds-1 {
			g.close()
			f.stop()
			continue
		}
		s.f, s.g = f, g
	}
	return s, nil
}

func (s *session) stop() {
	if s.f != nil {
		s.g.close()
		s.f.stop()
		s.f = nil
	}
}

func (s *session) record(shots []shot, outs []outcome) {
	for i := range outs {
		if outs[i].ok() {
			s.ids = append(s.ids, shots[i].id)
			s.outs = append(s.outs, &outs[i])
		}
	}
}

// verify runs the oracle over every recorded response. Each mismatching
// outcome is marked failed (status 0) and described.
func (s *session) verify() (*oracle, []string, error) {
	o := newOracle(s.rs.cat, s.cfg.w)
	if err := o.reference(s.rs, s.ids); err != nil {
		return nil, nil, err
	}
	var bad []string
	for i, out := range s.outs {
		if msg := check(out.resp, o.ref[s.ids[i]]); msg != "" {
			out.status = 0
			sp, _, _ := s.rs.get(s.ids[i])
			bad = append(bad, fmt.Sprintf("request %d (%s | mem %s): %s", s.ids[i], sp.SQL, sp.Mem, msg))
		}
	}
	return o, bad, nil
}

// fixedPhase is the latency phase at the workload's fixed offered rate.
type fixedPhase struct {
	shots []shot
	outs  []outcome
	cpu   int64 // lecd CPU ticks
	// stealPct is the host CPU time the hypervisor gave to other guests
	// during the phase, in percent.
	stealPct float64
	before   lecdStats
	after    lecdStats
}

func (s *session) runFixed(d time.Duration) (*fixedPhase, error) {
	shots, err := s.sch.phaseShots(s.cfg.w.rate, d)
	if err != nil {
		return nil, err
	}
	p := &fixedPhase{shots: shots}
	if p.before, err = s.f.sumStats(); err != nil {
		return nil, err
	}
	c0, err := s.f.cpuTicks()
	if err != nil {
		return nil, err
	}
	h0 := readHostTicks()
	p.outs = s.g.run(shots, time.Second)
	p.stealPct = readHostTicks().stealPctSince(h0)
	c1, err := s.f.cpuTicks()
	if err != nil {
		return nil, err
	}
	if p.after, err = s.f.sumStats(); err != nil {
		return nil, err
	}
	p.cpu = c1 - c0
	s.record(shots, p.outs)
	return p, nil
}

// cpuPerReq is the lecd CPU time per successful request of the phase.
func (p *fixedPhase) cpuPerReq() time.Duration {
	ok := 0
	for i := range p.outs {
		if p.outs[i].ok() {
			ok++
		}
	}
	if ok == 0 {
		return 0
	}
	return time.Duration(p.cpu) * clockTick / time.Duration(ok)
}

// layerCounters are the fixed phase's per-layer counters, from /statsz
// deltas and response flags.
func (p *fixedPhase) layerCounters() map[string]float64 {
	m := map[string]float64{}
	hits := float64(p.after.CacheHits - p.before.CacheHits)
	misses := float64(p.after.CacheMisses - p.before.CacheMisses)
	reqs := float64(len(p.shots))
	if hits+misses > 0 {
		m["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	if reqs > 0 {
		m["serve.engine_runs_per_req"] = float64(p.after.Optimizations-p.before.Optimizations) / reqs
		m["serve.coalesced_ratio"] = float64(p.after.Coalesced-p.before.Coalesced) / reqs
	}
	var ok, peer, fell, hedged, greedy, escalated float64
	for i := range p.outs {
		o := &p.outs[i]
		if !o.ok() {
			continue
		}
		ok++
		if o.resp.PeerHit {
			peer++
		}
		if o.resp.FellBack {
			fell++
		}
		if o.resp.Hedged {
			hedged++
		}
		switch o.resp.Tier {
		case "greedy":
			greedy++
		case "dp":
			escalated++
		}
	}
	if ok > 0 {
		m["fleet.peer_hit_ratio"] = peer / ok
		m["fleet.fell_back_ratio"] = fell / ok
		m["fleet.hedged_ratio"] = hedged / ok
		m["tier.greedy_served"] = greedy
		m["tier.escalated"] = escalated
	}
	return m
}

// runTimed is the end-to-end run: set-up, the fixed-rate latency phase
// (60% of the run), the max-rate search (40%), then the oracle.
func runTimed(cfg runConfig) (*result, error) {
	s, err := startSession(cfg)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	total := time.Duration(cfg.seconds * float64(time.Second))
	fixed, err := s.runFixed(total * 6 / 10)
	if err != nil {
		return nil, err
	}
	// Peak memory is read after the fixed phase: the rate search's
	// overload lets the garbage collector fall behind by an amount that
	// differs from run to run.
	rss, err := s.f.peakRSSMB()
	if err != nil {
		return nil, err
	}
	maxRate, steps, err := searchMaxRate(s.g, s.sch, searchStart(cfg.w, fixed.cpuPerReq()), total*4/10, s.record)
	if err != nil {
		return nil, err
	}
	fp := newFingerprint(cfg, s.f)
	s.stop()

	// Every oracle mismatch, in any phase, is a failed operation.
	failed := summarize(fixed.outs, cfg.w.p90Limit).failed
	o, bad, err := s.verify()
	if err != nil {
		return nil, err
	}
	failed += len(bad)
	ps := summarize(fixed.outs, cfg.w.p90Limit)
	vals := map[string]float64{"max_rate_rps": maxRate, "setup_s": median(s.setup), "peak_rss_mb": rss}
	notes := fixed.layerCounters()
	notes["samples"] = float64(len(ps.latencies))
	notes["rate_search_steps"] = float64(len(steps))
	p50, ok50 := percentile(ps.latencies, 0.5)
	p90, ok90 := percentile(ps.latencies, 0.9)
	if !ok50 || !ok90 {
		return nil, fmt.Errorf("fixed phase kept %d samples, too few for p90", len(ps.latencies))
	}
	vals["latency_p50_ms"], vals["latency_p90_ms"] = p50, p90
	vals["server_cpu_us_per_req"] = float64(fixed.cpuPerReq()) / float64(time.Microsecond)
	vals["error_rate"] = float64(ps.failed) / float64(ps.attempted)
	late, _ := percentile(ps.lateness, 0.9)
	fp.GenLatenessP90 = late
	fp.HostStealPct = fixed.stealPct

	// Plan quality over the fixed phase's served plans.
	var ratios []float64
	for i := range fixed.outs {
		if out := &fixed.outs[i]; out.ok() && !out.resp.Degraded && out.resp.Pressure == "" {
			ratios = append(ratios, out.resp.ExpectedCost/o.ref[fixed.shots[i].id])
		}
	}
	vals["plan_cost_ratio"] = mean(ratios)
	for i, st := range s.setup {
		notes[fmt.Sprintf("setup_s.%d", i)] = st
	}

	res := &result{
		Workload: cfg.w.name, Seed: cfg.seed, Trace: 0, Fingerprint: fp,
		Correct: len(bad) == 0, Attempted: ps.attempted, Failed: failed,
		Mismatches: bad, Metrics: setMetrics(endToEnd, vals), Notes: notes, Steps: steps,
	}
	return res, nil
}
