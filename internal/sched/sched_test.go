package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/device"
	"repro/internal/env"
	"repro/internal/fl"
	"repro/internal/rl"
	"repro/internal/stats"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// constSystem builds a system on constant-bandwidth traces so the planner's
// assumptions hold exactly.
func constSystem(bws []float64) *fl.System {
	devs := device.MustNewFleet(len(bws), device.FleetParams{}, 11)
	traces := make([]*trace.Trace, len(bws))
	for i, b := range bws {
		traces[i] = trace.MustNew("c", 1, []float64{b})
	}
	return &fl.System{Devices: devs, Traces: traces, Tau: 1, ModelBytes: 25e6, Lambda: 1}
}

// dynamicSystem builds a system on regime-switching walking traces.
func dynamicSystem(n int, seed int64) *fl.System {
	devs := device.MustNewFleet(n, device.FleetParams{}, seed)
	p := bandwidth.Walking4G()
	traces := make([]*trace.Trace, n)
	for i := range traces {
		traces[i] = p.MustGenerate("w", 2000, seed+int64(i)*31)
	}
	return &fl.System{Devices: devs, Traces: traces, Tau: 1, ModelBytes: 25e6, Lambda: 1}
}

func TestPlanFrequenciesFeasible(t *testing.T) {
	sys := constSystem([]float64{5e6, 2e6, 1e6})
	fs, err := PlanFrequencies(sys, []float64{5e6, 2e6, 1e6}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range sys.Devices {
		if fs[i] <= 0 || fs[i] > d.MaxFreqHz {
			t.Fatalf("freq %d = %v infeasible", i, fs[i])
		}
	}
}

func TestPlanBeatsMaxFreqOnKnownBandwidth(t *testing.T) {
	// With the bandwidth known exactly, the planner's cost must not exceed
	// the run-at-max cost.
	sys := constSystem([]float64{5e6, 2e6, 1e6})
	bw := []float64{5e6, 2e6, 1e6}
	planned, err := PlanFrequencies(sys, bw, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	itPlan, err := sys.RunIteration(0, 0, planned)
	if err != nil {
		t.Fatal(err)
	}
	maxFs, _ := MaxFreq{}.Frequencies(Context{Sys: sys})
	itMax, err := sys.RunIteration(0, 0, maxFs)
	if err != nil {
		t.Fatal(err)
	}
	if itPlan.Cost > itMax.Cost+1e-9 {
		t.Fatalf("planned cost %v > maxfreq cost %v", itPlan.Cost, itMax.Cost)
	}
	// And it should strictly save energy by slowing non-critical devices.
	if itPlan.ComputeEnergy >= itMax.ComputeEnergy {
		t.Fatalf("planned energy %v ≥ maxfreq energy %v", itPlan.ComputeEnergy, itMax.ComputeEnergy)
	}
}

func TestPlanStragglerGetsRelativelyMoreFrequency(t *testing.T) {
	// The device with the slowest link must not be slowed more aggressively
	// (relative to its δmax) than the best-connected device.
	sys := constSystem([]float64{8e6, 8e6, 0.3e6})
	fs, err := PlanFrequencies(sys, []float64{8e6, 8e6, 0.3e6}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	fracFast := fs[0] / sys.Devices[0].MaxFreqHz
	fracSlow := fs[2] / sys.Devices[2].MaxFreqHz
	if fracSlow < fracFast-1e-9 {
		t.Fatalf("straggler frac %v < fast device frac %v", fracSlow, fracFast)
	}
}

func TestPlanFrequenciesErrors(t *testing.T) {
	sys := constSystem([]float64{1e6, 1e6})
	if _, err := PlanFrequencies(sys, []float64{1e6}, 0.05); err == nil {
		t.Fatal("bandwidth count mismatch accepted")
	}
	if _, err := PlanFrequencies(sys, []float64{1e6, 0}, 0.05); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := PlanFrequencies(sys, []float64{1e6, math.NaN()}, 0.05); err == nil {
		t.Fatal("NaN bandwidth accepted")
	}
	if _, err := PlanFrequencies(sys, []float64{1e6, 1e6}, 0); err == nil {
		t.Fatal("bad minFrac accepted")
	}
	sys.Tau = 0
	if _, err := PlanFrequencies(sys, []float64{1e6, 1e6}, 0.05); err == nil {
		t.Fatal("invalid system accepted")
	}
}

func TestMaxFreqScheduler(t *testing.T) {
	sys := constSystem([]float64{1e6, 2e6})
	fs, err := MaxFreq{}.Frequencies(Context{Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range sys.Devices {
		if fs[i] != d.MaxFreqHz {
			t.Fatalf("maxfreq[%d] = %v", i, fs[i])
		}
	}
	if (MaxFreq{}).Name() != "maxfreq" {
		t.Fatal("name")
	}
}

func TestRandomScheduler(t *testing.T) {
	sys := constSystem([]float64{1e6, 2e6, 3e6})
	r, err := NewRandom(0.2, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		fs, err := r.Frequencies(Context{Sys: sys})
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range sys.Devices {
			if fs[i] < 0.2*d.MaxFreqHz-1e-9 || fs[i] > d.MaxFreqHz+1e-9 {
				t.Fatalf("random freq %v outside bounds", fs[i])
			}
		}
	}
	if _, err := NewRandom(0, nil); err == nil {
		t.Fatal("bad args accepted")
	}
	if _, err := NewRandom(0.5, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestStaticIsConstant(t *testing.T) {
	sys := dynamicSystem(3, 5)
	st, err := NewStatic(sys, []float64{3e6, 3e6, 3e6}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	its, err := Run(sys, st, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Same frequencies every iteration ⇒ identical computational energy —
	// the paper's Fig. 7(f) observation that static energy is exactly 1.62.
	e0 := its[0].ComputeEnergy
	for k, it := range its {
		if !testutil.Within(it.ComputeEnergy, e0, 1e-9) {
			t.Fatalf("static energy varies at iteration %d: %v vs %v", k, it.ComputeEnergy, e0)
		}
	}
	// Mismatched fleet is rejected.
	other := constSystem([]float64{1e6})
	if _, err := st.Frequencies(Context{Sys: other}); err == nil {
		t.Fatal("static plan applied to wrong fleet")
	}
}

func TestHeuristicUsesLastBandwidth(t *testing.T) {
	sys := constSystem([]float64{5e6, 2e6, 1e6})
	h, err := NewHeuristic([]float64{3e6, 3e6, 3e6}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// First call (no observation) uses the initial estimate.
	first, err := h.Frequencies(Context{Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	// With true bandwidths observed, the plan changes.
	second, err := h.Frequencies(Context{Sys: sys, LastBW: []float64{5e6, 2e6, 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range first {
		if !testutil.Within(second[i], first[i], 1) {
			same = false
		}
	}
	if same {
		t.Fatal("heuristic ignored the observed bandwidth")
	}
	if _, err := NewHeuristic(nil, 0.05); err == nil {
		t.Fatal("empty initial bandwidth accepted")
	}
	if _, err := NewHeuristic([]float64{1e6}, 2); err == nil {
		t.Fatal("bad minFrac accepted")
	}
}

func TestHeuristicOptimalOnTrulyStaticNetwork(t *testing.T) {
	// On constant traces the heuristic's assumption is exact from iteration
	// 2 on, so its cost should be near the known-bandwidth optimum.
	sys := constSystem([]float64{5e6, 2e6, 1e6})
	h, _ := NewHeuristic([]float64{3e6, 3e6, 3e6}, 0.05)
	its, err := Run(sys, h, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := PlanFrequencies(sys, []float64{5e6, 2e6, 1e6}, 0.05)
	itOpt, _ := sys.RunIteration(0, 0, opt)
	for _, it := range its[1:] {
		if it.Cost > itOpt.Cost*1.01 {
			t.Fatalf("heuristic cost %v far from optimum %v on static network", it.Cost, itOpt.Cost)
		}
	}
}

func TestOracleBeatsHeuristicOnAverage(t *testing.T) {
	sys := dynamicSystem(3, 21)
	or, err := NewOracle(0.05, 60)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := NewHeuristic([]float64{3e6, 3e6, 3e6}, 0.05)
	itsO, err := Run(sys, or, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	itsH, err := Run(sys, h, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	mo := stats.Mean(Costs(itsO))
	mh := stats.Mean(Costs(itsH))
	if mo > mh*1.05 {
		t.Fatalf("oracle mean cost %v clearly worse than heuristic %v", mo, mh)
	}
	if _, err := NewOracle(0, 60); err == nil {
		t.Fatal("bad minFrac accepted")
	}
	if _, err := NewOracle(0.1, 0); err == nil {
		t.Fatal("bad lookahead accepted")
	}
}

func TestDRLSchedulerShapes(t *testing.T) {
	sys := dynamicSystem(3, 9)
	cfg := env.DefaultConfig()
	rng := rand.New(rand.NewSource(2))
	policy := rl.NewGaussianPolicy(3*(cfg.History+1), 3, []int{16}, 0.5, rng)
	d, err := NewDRL(policy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := d.Frequencies(Context{Sys: sys, Clock: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i, dev := range sys.Devices {
		if fs[i] < cfg.MinFreqFrac*dev.MaxFreqHz-1e-6 || fs[i] > dev.MaxFreqHz+1e-6 {
			t.Fatalf("DRL freq %v infeasible", fs[i])
		}
	}
	// Wrong-sized policy is rejected at decision time.
	small := rl.NewGaussianPolicy(4, 3, []int{4}, 0.5, rng)
	d2, _ := NewDRL(small, cfg)
	if _, err := d2.Frequencies(Context{Sys: sys, Clock: 0}); err == nil {
		t.Fatal("state-dim mismatch accepted")
	}
	if _, err := NewDRL(nil, cfg); err == nil {
		t.Fatal("nil policy accepted")
	}
	bad := cfg
	bad.SlotSec = 0
	if _, err := NewDRL(policy, bad); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestDRLDeterministicReasoning(t *testing.T) {
	sys := dynamicSystem(2, 13)
	cfg := env.DefaultConfig()
	rng := rand.New(rand.NewSource(3))
	policy := rl.NewGaussianPolicy(2*(cfg.History+1), 2, []int{8}, 0.5, rng)
	d, _ := NewDRL(policy, cfg)
	a, _ := d.Frequencies(Context{Sys: sys, Clock: 42})
	b, _ := d.Frequencies(Context{Sys: sys, Clock: 42})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("online reasoning must be deterministic (mean action)")
		}
	}
}

func TestDRLFrequenciesFromStateIntoReusesDst(t *testing.T) {
	sys := dynamicSystem(3, 11)
	cfg := env.DefaultConfig()
	rng := rand.New(rand.NewSource(8))
	pol := rl.NewSharedGaussianPolicy(3, cfg.History+1, []int{8}, 0.5, rng)
	d, err := NewDRL(pol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	state, _ := env.BuildStateInto(nil, nil, sys, 50, cfg)
	dst := make([]float64, 3)
	out, err := d.FrequenciesFromStateInto(dst, Context{Sys: sys, Clock: 50}, state)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &dst[0] {
		t.Fatal("FrequenciesFromStateInto did not reuse the provided destination")
	}
	ref, err := d.FrequenciesFromState(Context{Sys: sys, Clock: 50}, state)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Float64bits(out[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("dev %d: Into %v differs from allocating path %v", i, out[i], ref[i])
		}
	}
}

func TestRunProducesConsistentSeries(t *testing.T) {
	sys := dynamicSystem(3, 7)
	its, err := Run(sys, MaxFreq{}, 10, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(its) != 25 {
		t.Fatalf("got %d iterations", len(its))
	}
	cs, ds, es := Costs(its), Durations(its), ComputeEnergies(its)
	for k := range its {
		if its[k].Index != k {
			t.Fatalf("index %d at position %d", its[k].Index, k)
		}
		if !testutil.Within(cs[k], ds[k]+sys.Lambda*its[k].TotalEnergy(), 1e-9) {
			t.Fatalf("cost series inconsistent at %d", k)
		}
		if es[k] != its[k].ComputeEnergy {
			t.Fatal("energy series mismatch")
		}
	}
	if _, err := Run(sys, MaxFreq{}, 0, 0); err == nil {
		t.Fatal("zero iterations accepted")
	}
}

func TestRunSurfacesSchedulerErrors(t *testing.T) {
	sys := dynamicSystem(2, 3)
	bad := badScheduler{}
	if _, err := Run(sys, bad, 0, 3); err == nil {
		t.Fatal("scheduler error not surfaced")
	}
	inf := infeasibleScheduler{}
	if _, err := Run(sys, inf, 0, 3); err == nil {
		t.Fatal("infeasible frequencies not surfaced")
	}
}

// observingMaxFreq records every iteration Run reports back to it.
type observingMaxFreq struct {
	MaxFreq
	seen []fl.IterationStats
}

func (o *observingMaxFreq) Observe(it fl.IterationStats) { o.seen = append(o.seen, it) }

// TestRunFeedsObserver: Run hands each iteration's stats to an Observer
// scheduler right after the step, the loop the guard's cost-regression
// breaker closes through.
func TestRunFeedsObserver(t *testing.T) {
	sys := dynamicSystem(2, 7)
	obs := &observingMaxFreq{}
	its, err := Run(sys, obs, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.seen) != len(its) {
		t.Fatalf("observer saw %d of %d iterations", len(obs.seen), len(its))
	}
	for k := range its {
		if obs.seen[k].Index != k || obs.seen[k].Cost != its[k].Cost {
			t.Fatalf("iteration %d observed as index %d cost %v, run reports cost %v",
				k, obs.seen[k].Index, obs.seen[k].Cost, its[k].Cost)
		}
	}
}

type badScheduler struct{}

func (badScheduler) Name() string { return "bad" }
func (badScheduler) Frequencies(Context) ([]float64, error) {
	return nil, errBad
}

var errBad = fmt.Errorf("deliberate scheduler failure")

type infeasibleScheduler struct{}

func (infeasibleScheduler) Name() string { return "inf" }
func (infeasibleScheduler) Frequencies(ctx Context) ([]float64, error) {
	fs := make([]float64, ctx.Sys.N())
	return fs, nil // all zeros: outside (0, δmax]
}
