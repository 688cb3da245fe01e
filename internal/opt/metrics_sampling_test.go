package opt

// The engine attributes costing time from a stride sample of pricer calls
// (obs.go, costStart). These tests pin the two contracts that make the
// sampling safe to serve: turning metrics on changes neither the plan nor
// any counter, and the clock is read at most once per costSampleStride
// pricer calls (plus the forced first sample) — a deterministic gate, so
// a regression to per-evaluation timing fails without any wall-clock
// assertion. The phase-split test checks that the
// sampled estimate still yields 0 ≤ bucketing ≤ costing ≤ total.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

// gridConfigs enumerates every valid engine configuration over a shared
// memory distribution (MultiParams only prices expected cost; the pipelined
// space is covered by the golden instances).
func gridConfigs(dm *stats.Dist) map[string]Config {
	chain := stats.MustNewChain(dm.Support(), [][]float64{
		{0.7, 0.2, 0.1},
		{0.2, 0.6, 0.2},
		{0.1, 0.2, 0.7},
	})
	costers := map[string]Coster{
		"fixed":  FixedParams{Mem: dm.Mean()},
		"static": StaticParams{Mem: dm},
		"phased": PhasedParams{Phases: []*stats.Dist{dm, dm.Scale(0.5), dm.Scale(2)}},
		"markov": MarkovParams{Chain: chain, Initial: dm},
		"multi":  MultiParams{Mem: dm},
	}
	objectives := map[string]Objective{
		"expcost": ExpectedCost{},
		"ceq":     ExponentialUtility{Gamma: 1e-5},
		"mv":      VariancePenalized{Lambda: 1e-7},
	}
	spaces := map[string]Space{"leftdeep": SpaceLeftDeep, "bushy": SpaceBushy}
	out := map[string]Config{}
	for sn, sp := range spaces {
		for cn, co := range costers {
			for on, ob := range objectives {
				if cn == "multi" && on != "expcost" {
					continue // rejected by Config.validate
				}
				out[sn+"/"+cn+"/"+on] = Config{Space: sp, Coster: co, Objective: ob}
			}
		}
	}
	return out
}

// checkMetricsNeutral runs cfg once with Options.Metrics nil and once with a
// fresh bundle, requires byte-identical plans, costs and counters, and
// bounds the metrics-on run's clock samples.
func checkMetricsNeutral(t *testing.T, name string, cat *catalog.Catalog, q *query.SPJ, opts Options, cfg Config) {
	t.Helper()
	run := func(m *obs.OptMetrics) (*Optimizer, *Result) {
		o := opts
		o.Metrics = m
		eng, err := NewOptimizer(cat, q, o, cfg)
		if err != nil {
			t.Fatalf("%s: NewOptimizer: %v", name, err)
		}
		res, err := eng.Optimize()
		if err != nil {
			t.Fatalf("%s: Optimize: %v", name, err)
		}
		return eng, res
	}
	offEng, off := run(nil)
	onEng, on := run(obs.NewOptMetrics(obs.NewRegistry()))
	if on.Plan.Key() != off.Plan.Key() {
		t.Errorf("%s: plan with metrics %s != without %s", name, on.Plan.Key(), off.Plan.Key())
	}
	if math.Float64bits(on.Cost) != math.Float64bits(off.Cost) {
		t.Errorf("%s: cost with metrics %v != without %v", name, on.Cost, off.Cost)
	}
	if on.Count != off.Count {
		t.Errorf("%s: result counters with metrics %+v != without %+v", name, on.Count, off.Count)
	}
	if onEng.Stats() != offEng.Stats() {
		t.Errorf("%s: stats with metrics %+v != without %+v", name, onEng.Stats(), offEng.Stats())
	}
	if offEng.ctx.costCalls != 0 || offEng.ctx.costSamples != 0 {
		t.Errorf("%s: metrics-off run counted %d pricer calls, %d samples", name, offEng.ctx.costCalls, offEng.ctx.costSamples)
	}
	c := onEng.ctx
	// The first call and every stride-th after it is sampled: at most
	// calls/stride + 1 samples.
	if max := c.costCalls/costSampleStride + 1; c.costSamples > max {
		t.Errorf("%s: %d clock samples over %d pricer calls, want ≤ %d", name, c.costSamples, c.costCalls, max)
	}
	if c.costCalls > 0 && c.costSamples == 0 {
		t.Errorf("%s: %d pricer calls but no clock sample", name, c.costCalls)
	}
}

// TestMetricsDoNotChangePlanOrWork runs the golden-reference instances and
// the Space × Coster × Objective grid with metrics off and on.
func TestMetricsDoNotChangePlanOrWork(t *testing.T) {
	runs := 0
	for i := 0; i < 25; i++ {
		gi := randomGoldenInstance(t, int64(9000+i))
		cfgs := map[string]Config{
			"systemR":    {Coster: FixedParams{Mem: gi.dm.Mean()}},
			"algC":       {Coster: StaticParams{Mem: gi.dm}},
			"algCDyn":    {Coster: MarkovParams{Chain: gi.chain, Initial: gi.dm}},
			"algD":       {Coster: MultiParams{Mem: gi.dm}},
			"bushyC":     {Space: SpaceBushy, Coster: StaticParams{Mem: gi.dm}},
			"expUtility": {Coster: PhasedParams{Phases: gi.phases}, Objective: ExponentialUtility{Gamma: gi.gamma}},
			"pipelined":  {Space: SpacePipelined, Coster: PhasedParams{Phases: gi.phases}},
		}
		for name, cfg := range cfgs {
			checkMetricsNeutral(t, fmt.Sprintf("golden %d %s", i, name), gi.cat, gi.q, gi.opts, cfg)
			runs++
		}
		// The candidate-pool strategies run their own session loops.
		for name, alg := range map[string]func(*catalog.Catalog, *query.SPJ, Options, *stats.Dist) (*Result, error){
			"algA": AlgorithmA, "algB": AlgorithmB,
		} {
			off, errOff := alg(gi.cat, gi.q, gi.opts, gi.dm)
			on := gi.opts
			on.Metrics = obs.NewOptMetrics(obs.NewRegistry())
			got, errOn := alg(gi.cat, gi.q, on, gi.dm)
			if errOff != nil || errOn != nil {
				t.Fatalf("golden %d %s: errors off=%v on=%v", i, name, errOff, errOn)
			}
			if got.Plan.Key() != off.Plan.Key() || math.Float64bits(got.Cost) != math.Float64bits(off.Cost) || got.Count != off.Count {
				t.Errorf("golden %d %s: metrics changed the result: (%s, %v, %+v) vs (%s, %v, %+v)",
					i, name, got.Plan.Key(), got.Cost, got.Count, off.Plan.Key(), off.Cost, off.Count)
			}
			runs++
		}
	}
	dm := stats.MustNew([]float64{200, 900, 4000}, []float64{0.3, 0.4, 0.3})
	for name, cfg := range gridConfigs(dm) {
		for _, seed := range []int64{7101, 7102} {
			n := 6 + int(seed-7101)
			cat, q := randInstance(t, seed, n, 0, true)
			checkMetricsNeutral(t, fmt.Sprintf("%s seed %d", name, seed), cat, q, Options{Trace: true}, cfg)
			runs++
		}
	}
	t.Logf("%d metrics off/on pairs", runs)
}

// TestMetricsPhaseSplitConsistent checks 0 ≤ bucketing ≤ costing ≤ total
// on the registry's histogram sums (total = enumeration + costing, so the
// upper bound is enumeration ≥ 0) for Algorithm D — the only coster that
// buckets — and Algorithm C, and that a run
// with at least costSampleStride pricer calls reports positive costing.
// The clamp itself is then pinned on a hand-set context whose sampled
// costing falls below its bucketing and whose costing exceeds its wall time.
func TestMetricsPhaseSplitConsistent(t *testing.T) {
	dm := randMemDist3(11)
	cases := []struct {
		name string
		opts Options
		cfg  Config
	}{
		{"algD", Options{}, Config{Coster: MultiParams{Mem: dm}}},
		{"algC", Options{}, Config{Coster: StaticParams{Mem: dm}}},
	}
	for _, shape := range []workload.Topology{workload.Chain, workload.Star, workload.Clique} {
		cat, q := randInstance(t, 31, 7, shape, true)
		for _, tc := range cases {
			name := fmt.Sprintf("%s/%v", tc.name, shape)
			m := obs.NewOptMetrics(obs.NewRegistry())
			opts := tc.opts
			opts.Metrics = m
			eng, err := NewOptimizer(cat, q, opts, tc.cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if _, err := eng.Optimize(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			enum, costing, bucketing := m.EnumerationSeconds.Sum(), m.CostingSeconds.Sum(), m.BucketingSeconds.Sum()
			if !(bucketing >= 0 && bucketing <= costing && enum >= 0) {
				t.Errorf("%s: phase split enum=%g costing=%g bucketing=%g violates 0 ≤ bucketing ≤ costing ≤ total", name, enum, costing, bucketing)
			}
			if calls := eng.ctx.costCalls; calls < costSampleStride {
				t.Errorf("%s: only %d pricer calls, want ≥ %d", name, calls, costSampleStride)
			} else if costing <= 0 {
				t.Errorf("%s: costing %g over %d pricer calls, want > 0", name, costing, calls)
			}
		}
	}

	// flush observes one run of the given wall time, sampled costing and
	// bucketing on a fresh bundle.
	flush := func(wall, sampled, bucketing time.Duration) (enum, costing, bucket float64) {
		m := obs.NewOptMetrics(obs.NewRegistry())
		ctx := &Context{metrics: m, bucketErr: &errMemo{}, runStart: time.Now().Add(-wall)}
		ctx.costCalls, ctx.costSamples = 2*costSampleStride, 2
		ctx.costSampledNanos = sampled.Nanoseconds()
		ctx.bucketingNanos = bucketing.Nanoseconds()
		ctx.flushMetrics()
		return m.EnumerationSeconds.Sum(), m.CostingSeconds.Sum(), m.BucketingSeconds.Sum()
	}
	if _, c, b := flush(time.Hour, 10, 500*time.Microsecond); c != b || b != 500e-6 {
		t.Errorf("sampled costing below bucketing: flushed costing=%g bucketing=%g, want both 500µs", c, b)
	}
	if e, c, b := flush(time.Millisecond, time.Second, 2*time.Second); e != 0 || c != b || c < 1e-3 || c >= 1 {
		t.Errorf("costing above wall time: flushed enum=%g costing=%g bucketing=%g, want 0 and costing = bucketing = wall", e, c, b)
	}
}
