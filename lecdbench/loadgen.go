package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outcome is what happened to one scheduled request.
type outcome struct {
	sent     bool
	status   int           // HTTP status; 0 on a transport error or timeout
	latency  time.Duration // completion minus the scheduled send time
	lateness time.Duration // actual send minus the scheduled send time
	body     []byte
	resp     wireResp
}

// wireResp is the part of an /optimize response the benchmark checks.
type wireResp struct {
	ExpectedCost float64 `json:"expected_cost"`
	Tier         string  `json:"tier"`
	Degraded     bool    `json:"degraded"`
	Pressure     string  `json:"pressure"`
	Cached       bool    `json:"cached"`
	Coalesced    bool    `json:"coalesced"`
	PeerHit      bool    `json:"peer_hit"`
	Hedged       bool    `json:"hedged"`
	FellBack     bool    `json:"fell_back"`
}

// ok reports a 200 whose body decoded; the oracle judges it later.
func (o *outcome) ok() bool { return o.status == http.StatusOK }

// generator is the open-loop load source: a fixed set of connections, each
// owned by one worker thread, sending on a precomputed schedule whatever
// the server's speed. Single-node workloads share one queue across
// min(2, nproc) connections; a fleet gets one connection per node.
type generator struct {
	f       *fleetProc
	rs      *requestSet
	clients []*http.Client
	queueOf []int // worker -> queue (node) it serves
	// bumpGen is the last catalog generation POSTed to the fleet.
	bumpGen uint64
	bumps   int
}

func newGenerator(f *fleetProc, rs *requestSet) *generator {
	g := &generator{f: f, rs: rs}
	workers := len(f.addrs)
	if workers == 1 {
		workers = min(2, runtime.NumCPU())
	}
	for w := 0; w < workers; w++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: 2 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			},
		})
		g.queueOf = append(g.queueOf, w%len(f.addrs))
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// serial sends one request and waits for it: the set-up warm-up and the
// traced replay. It reports the round trip; the body is decoded after the
// clock stops.
func (g *generator) serial(node, id int) outcome {
	_, body, _ := g.rs.get(id)
	c := g.clients[0]
	for w, q := range g.queueOf {
		if q == node {
			c = g.clients[w]
			break
		}
	}
	t0 := time.Now()
	o := send(c, g.f.addrs[node], body)
	o.latency = time.Since(t0)
	o.sent = true
	decode(&o)
	return o
}

func send(c *http.Client, addr string, body []byte) outcome {
	var o outcome
	resp, err := c.Post("http://"+addr+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		return o
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return o
	}
	o.status, o.body = resp.StatusCode, b
	return o
}

func decode(o *outcome) {
	if o.status != http.StatusOK {
		return
	}
	if err := json.Unmarshal(o.body, &o.resp); err != nil {
		o.status = 0
	}
}

// run plays one phase's schedule open-loop and returns one outcome per
// shot. Once any request starts later than abortLate the phase stops
// sending: the backlog is growing and the rest would only measure it.
// Bodies are decoded after the phase, off the timed path.
func (g *generator) run(shots []shot, abortLate time.Duration) []outcome {
	// The generator's own garbage collector would stall its send loop at
	// moments that differ from run to run; collect now and hold it off
	// until the phase ends (the memory limit set at start-up still bounds
	// the heap).
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	outs := make([]outcome, len(shots))
	queues := make([][]int, len(g.f.addrs))
	for i, s := range shots {
		queues[s.node] = append(queues[s.node], i)
	}
	next := make([]atomic.Int64, len(queues))
	var abort atomic.Bool
	var wg sync.WaitGroup
	stopBumps := make(chan struct{})
	var bumpWG sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	if g.rs.w.bumpEvery > 0 {
		bumpWG.Add(1)
		go func() {
			defer bumpWG.Done()
			g.bumpLoop(start, stopBumps)
		}()
	}
	for w, c := range g.clients {
		q := g.queueOf[w]
		wg.Add(1)
		go func(c *http.Client, q int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			setTimerSlack()
			addr := g.f.addrs[q]
			for {
				k := int(next[q].Add(1) - 1)
				if k >= len(queues[q]) {
					return
				}
				i := queues[q][k]
				due := start.Add(shots[i].at)
				sleepUntil(due)
				if abort.Load() {
					continue
				}
				_, body, _ := g.rs.get(shots[i].id)
				sentAt := time.Now()
				o := send(c, addr, body)
				done := time.Now()
				o.sent = true
				o.lateness = sentAt.Sub(due)
				o.latency = done.Sub(due)
				outs[i] = o
				if o.lateness > abortLate {
					abort.Store(true)
				}
			}
		}(c, q)
	}
	wg.Wait()
	close(stopBumps)
	bumpWG.Wait()
	for i := range outs {
		decode(&outs[i])
	}
	return outs
}

// bumpLoop POSTs a generation bump to alternating nodes every bumpEvery,
// the first half an interval into the phase, until stop closes. The offset
// keeps bumps away from the phase's end, so a phase of a given length
// always holds the same number of them.
func (g *generator) bumpLoop(start time.Time, stop <-chan struct{}) {
	t := time.NewTimer(time.Until(start.Add(g.rs.w.bumpEvery / 2)))
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		g.bumpGen++
		// A failed bump shows as stale hits, not as failed requests; the
		// traced run checks that bumps take effect.
		_ = g.f.bump(g.bumps%len(g.f.addrs), g.bumpGen)
		g.bumps++
		t.Reset(g.rs.w.bumpEvery)
	}
}

// sleepUntil waits for t with microsecond precision. The runtime's own
// timers round short sleeps up to the next millisecond when the process is
// idle, which would show as lateness the server did not cause, so the wait
// is a nanosleep on the calling thread.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// setTimerSlack drops the calling thread's timer slack from the default
// 50µs to 1ns, so nanosleep wakes when asked. Best effort.
func setTimerSlack() {
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// phaseStats summarizes one phase of outcomes.
type phaseStats struct {
	attempted, ok, failed int
	latencies, lateness   []float64 // ms, successful requests only
	growing               bool
}

// summarize counts a request as failed when it was not sent, got a non-200
// or no answer, or was served a pressure-degraded plan (the service
// answered, but not with the plan the request asked for). Oracle
// mismatches are added by the caller.
func summarize(outs []outcome, p90Limit time.Duration) phaseStats {
	var ps phaseStats
	for i := range outs {
		o := &outs[i]
		ps.attempted++
		if !o.sent || !o.ok() || o.resp.Degraded || o.resp.Pressure != "" {
			ps.failed++
			continue
		}
		ps.ok++
		ps.latencies = append(ps.latencies, ms(o.latency))
		ps.lateness = append(ps.lateness, ms(o.lateness))
	}
	// The backlog grows when requests in the last quarter of the schedule
	// start later than those in the first quarter by more than half the
	// p90 limit: an overloaded step's backlog grows by far more.
	if n := len(ps.lateness); n >= 40 {
		q := n / 4
		f, l := median(ps.lateness[:q]), median(ps.lateness[n-q:])
		ps.growing = l-f > ms(p90Limit)/2
	}
	return ps
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stepResult is one rate of the max-rate search.
type stepResult struct {
	Offered float64 `json:"offered_rps"`
	P90ms   float64 `json:"p90_ms"`
	Failed  int     `json:"failed"`
	Growing bool    `json:"backlog_growing"`
	Pass    bool    `json:"pass"`
	// Counters of the lecd processes over the step.
	Requests         int64 `json:"requests"`
	PressureDegraded int64 `json:"pressure_degraded"`
	Shed             int64 `json:"shed"`
}

// searchSteps is the number of rates the max-rate search tries.
const searchSteps = 8

// minStepSamples is the number of requests a search step expects, well
// above the 100 a p90 needs.
const minStepSamples = 150

// searchMaxRate finds the highest offered rate at which the p90 limit
// holds, no request fails and the backlog does not grow. It starts at
// start, moves by 1.25× per step until it has a passing and a failing
// rate, then bisects geometrically between them, and returns the highest
// passing rate. It always runs searchSteps steps, so every run measures
// for its whole budget; three bisections already bring the two rates
// within 3%, well inside the metric's bound. record receives every
// outcome for the oracle.
func searchMaxRate(g *generator, sch *scheduler, start float64, budget time.Duration, record func([]shot, []outcome)) (float64, []stepResult, error) {
	w := g.rs.w
	step := budget / searchSteps
	lo, hi := 0.0, math.Inf(1)
	rate := start
	var steps []stepResult
	for len(steps) < searchSteps && rate >= w.rate/4 {
		// A step must expect enough requests for its p90 to be reported.
		d := max(step, time.Duration(float64(time.Second)*minStepSamples/rate))
		shots, err := sch.phaseShots(rate, d)
		if err != nil {
			return 0, steps, err
		}
		before, err := g.f.sumStats()
		if err != nil {
			return 0, steps, err
		}
		outs := g.run(shots, 20*w.p90Limit)
		after, err := g.f.sumStats()
		if err != nil {
			return 0, steps, err
		}
		record(shots, outs)
		ps := summarize(outs, w.p90Limit)
		sr := stepResult{Offered: rate, Failed: ps.failed, Growing: ps.growing,
			Requests:         after.Requests - before.Requests,
			PressureDegraded: after.PressureDegraded - before.PressureDegraded,
			Shed:             after.Shed - before.Shed,
		}
		if p, ok := percentile(ps.latencies, 0.9); ok {
			sr.P90ms = p
			sr.Pass = ps.failed == 0 && !ps.growing && p <= ms(w.p90Limit)
		}
		steps = append(steps, sr)
		if sr.Pass {
			lo = rate
		} else {
			hi = rate
		}
		switch {
		case lo == 0:
			rate /= 1.25
		case math.IsInf(hi, 1):
			rate *= 1.25
		default:
			rate = math.Sqrt(lo * hi)
		}
		// Let the previous step's backlog drain before the next one.
		time.Sleep(50 * time.Millisecond)
	}
	return lo, steps, nil
}

// searchStart is where the rate search begins: 60% of the capacity the
// fixed phase's server CPU per request implies on this host, and never
// below the fixed rate. Starting near the answer leaves the search's time
// to longer steps.
func searchStart(w *workloadDef, cpuPerReq time.Duration) float64 {
	if cpuPerReq <= 0 {
		return w.rate
	}
	capacity := float64(runtime.NumCPU()) * float64(time.Second) / float64(cpuPerReq)
	return max(w.rate, 0.6*capacity)
}
