package env

import (
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/fl"
	"repro/internal/tensor"
	"repro/internal/testutil"
	"repro/internal/trace"
)

func testSystem() *fl.System {
	devs := device.MustNewFleet(3, device.FleetParams{}, 1)
	traces := []*trace.Trace{
		trace.MustNew("a", 1, rampSamples(300, 1e6, 5e6)),
		trace.MustNew("b", 1, rampSamples(300, 2e6, 4e6)),
		trace.MustNew("c", 1, rampSamples(300, 0.5e6, 3e6)),
	}
	return &fl.System{Devices: devs, Traces: traces, Tau: 1, ModelBytes: 25e6, Lambda: 1}
}

func rampSamples(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

func newEnv(t *testing.T) *Env {
	t.Helper()
	e, err := New(testSystem(), DefaultConfig(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	muts := map[string]func(*Config){
		"slot":    func(c *Config) { c.SlotSec = 0 },
		"history": func(c *Config) { c.History = -1 },
		"bwscale": func(c *Config) { c.BWScale = 0 },
		"minfrac": func(c *Config) { c.MinFreqFrac = 0 },
		"maxfrac": func(c *Config) { c.MinFreqFrac = 1 },
		"episode": func(c *Config) { c.EpisodeLen = 0 },
		"reward":  func(c *Config) { c.RewardScale = 0 },
		"start":   func(c *Config) { c.MaxStartTime = -1 },
	}
	for name, mut := range muts {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestNewValidation(t *testing.T) {
	sys := testSystem()
	if _, err := New(sys, DefaultConfig(), nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	bad := DefaultConfig()
	bad.SlotSec = -1
	if _, err := New(sys, bad, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("bad config accepted")
	}
	sys.Tau = 0
	if _, err := New(sys, DefaultConfig(), rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("bad system accepted")
	}
}

func TestDims(t *testing.T) {
	e := newEnv(t)
	if e.StateDim() != 3*(5+1) {
		t.Fatalf("state dim %d", e.StateDim())
	}
	if e.ActionDim() != 3 {
		t.Fatalf("action dim %d", e.ActionDim())
	}
}

func TestResetBuildsState(t *testing.T) {
	e := newEnv(t)
	s, err := e.Reset()
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != e.StateDim() {
		t.Fatalf("state len %d", len(s))
	}
	if !s.AllFinite() {
		t.Fatal("non-finite state")
	}
	// Normalized bandwidths should be O(1) under the default scale.
	for i, x := range s {
		if x < 0 || x > 3 {
			t.Fatalf("state[%d] = %v not normalized", i, x)
		}
	}
}

func TestResetAtDeterministic(t *testing.T) {
	e := newEnv(t)
	s1, err := e.ResetAtFaults(50, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := e.ResetAtFaults(50, 0)
	if !tensor.Equal(s1, s2) {
		t.Fatal("ResetAt not deterministic")
	}
	if e.Clock() != 50 {
		t.Fatalf("clock %v", e.Clock())
	}
}

func TestFreqsFromActionMapping(t *testing.T) {
	e := newEnv(t)
	// a = +1 (and beyond) → δmax; a = −1 (and below) → MinFreqFrac·δmax.
	hi, err := MapActionInto(nil, e.Sys, tensor.Vector{1, 2, 100}, e.Cfg.MinFreqFrac)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := MapActionInto(nil, e.Sys, tensor.Vector{-1, -2, -100}, e.Cfg.MinFreqFrac)
	mid, _ := MapActionInto(nil, e.Sys, tensor.Vector{0, 0, 0}, e.Cfg.MinFreqFrac)
	for i, d := range e.Sys.Devices {
		if !testutil.Within(hi[i], d.MaxFreqHz, 1e-6) {
			t.Fatalf("a=+1 freq %v != δmax %v", hi[i], d.MaxFreqHz)
		}
		if !testutil.Within(lo[i], e.Cfg.MinFreqFrac*d.MaxFreqHz, 1e-6) {
			t.Fatalf("a=−1 freq %v != floor", lo[i])
		}
		wantMid := (e.Cfg.MinFreqFrac + (1-e.Cfg.MinFreqFrac)/2) * d.MaxFreqHz
		if !testutil.Within(mid[i], wantMid, 1e-6) {
			t.Fatalf("a=0 freq %v want %v", mid[i], wantMid)
		}
	}
	if _, err := MapActionInto(nil, e.Sys, tensor.Vector{0}, e.Cfg.MinFreqFrac); err == nil {
		t.Fatal("wrong action dim accepted")
	}
}

func TestStepRewardNegatesCost(t *testing.T) {
	e := newEnv(t)
	if _, err := e.ResetAtFaults(10, 0); err != nil {
		t.Fatal(err)
	}
	res, err := e.StepInto(tensor.Vector{0.5, -0.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := -res.Iter.Cost / e.Cfg.RewardScale
	if !testutil.Within(res.Reward, want, 1e-12) {
		t.Fatalf("reward %v want %v", res.Reward, want)
	}
	if res.Done {
		t.Fatal("done after one step of a 40-step episode")
	}
	if len(res.State) != e.StateDim() {
		t.Fatal("next state dim wrong")
	}
}

func TestEpisodeTermination(t *testing.T) {
	e := newEnv(t)
	e.Cfg.EpisodeLen = 3
	if _, err := e.ResetAtFaults(0, 0); err != nil {
		t.Fatal(err)
	}
	a := tensor.Vector{1, 1, 1}
	for k := 0; k < 3; k++ {
		res, err := e.StepInto(a)
		if err != nil {
			t.Fatal(err)
		}
		if (k == 2) != res.Done {
			t.Fatalf("done flag wrong at step %d", k)
		}
	}
	if _, err := e.StepInto(a); err == nil {
		t.Fatal("step past episode end accepted")
	}
	// Reset allows a fresh episode.
	if _, err := e.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StepInto(a); err != nil {
		t.Fatal(err)
	}
}

func TestStepBeforeResetFails(t *testing.T) {
	e := newEnv(t)
	if _, err := e.StepInto(tensor.Vector{0, 0, 0}); err == nil {
		t.Fatal("StepInto before Reset accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("State before Reset should panic")
		}
	}()
	e.State()
}

func TestClockAdvancesWithIterations(t *testing.T) {
	e := newEnv(t)
	if _, err := e.ResetAtFaults(5, 0); err != nil {
		t.Fatal(err)
	}
	res, err := e.StepInto(tensor.Vector{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.Within(e.Clock(), 5+res.Iter.Duration, 1e-9) {
		t.Fatalf("clock %v, want %v", e.Clock(), 5+res.Iter.Duration)
	}
	if e.Session() == nil || e.Session().K() != 1 {
		t.Fatal("session not tracking iterations")
	}
}

func TestRandomResetWithinTraceDuration(t *testing.T) {
	e := newEnv(t)
	for i := 0; i < 20; i++ {
		if _, err := e.Reset(); err != nil {
			t.Fatal(err)
		}
		if e.Clock() < 0 || e.Clock() > 300 {
			t.Fatalf("start time %v outside trace duration", e.Clock())
		}
	}
}

func TestLowerFrequencyLowersEnergy(t *testing.T) {
	// Driving the env with a lower action must never increase the energy
	// component of the iteration.
	e := newEnv(t)
	if _, err := e.ResetAtFaults(0, 0); err != nil {
		t.Fatal(err)
	}
	fast, err := e.StepInto(tensor.Vector{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ResetAtFaults(0, 0); err != nil {
		t.Fatal(err)
	}
	slow, err := e.StepInto(tensor.Vector{-0.5, -0.5, -0.5})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Iter.ComputeEnergy >= fast.Iter.ComputeEnergy {
		t.Fatalf("slow energy %v ≥ fast %v", slow.Iter.ComputeEnergy, fast.Iter.ComputeEnergy)
	}
	if slow.Iter.Duration <= fast.Iter.Duration {
		t.Fatalf("slow duration %v ≤ fast %v", slow.Iter.Duration, fast.Iter.Duration)
	}
}
