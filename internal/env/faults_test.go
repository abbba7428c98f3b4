package env

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/tensor"
)

func faultyConfig() Config {
	cfg := DefaultConfig()
	cfg.EpisodeLen = 12
	cfg.MaxStartTime = 100
	cfg.RoundDeadline = 300
	cfg.Faults = &fault.Config{
		CrashProb: 0.25, RejoinProb: 0.5, BlackoutProb: 0.2, StragglerProb: 0.15,
	}
	return cfg
}

func TestFaultConfigValidation(t *testing.T) {
	cfg := faultyConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("faulty config rejected: %v", err)
	}
	cfg.RoundDeadline = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("crashes without a deadline accepted")
	}
	cfg = faultyConfig()
	cfg.Faults = &fault.Config{CrashProb: 2, RejoinProb: 1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("invalid fault config accepted")
	}
	cfg = faultyConfig()
	cfg.RetryBackoffSec = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative backoff accepted")
	}
}

// A nil fault config must leave the environment's RNG stream — and thus
// every fault-free trajectory — bit-identical to before this feature.
func TestNilFaultsPreserveRNGStream(t *testing.T) {
	run := func(cfg Config) ([]float64, tensor.Vector) {
		e, err := New(testSystem(), cfg, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		var starts []float64
		var last tensor.Vector
		for ep := 0; ep < 4; ep++ {
			s, err := e.Reset()
			if err != nil {
				t.Fatal(err)
			}
			starts = append(starts, e.Clock())
			last = s
		}
		return starts, last
	}
	base := DefaultConfig()
	base.MaxStartTime = 100
	gotStarts, gotState := run(base)

	// Reference: the raw draws the pre-fault Reset made.
	rng := rand.New(rand.NewSource(5))
	for i, s := range gotStarts {
		want := rng.Float64() * 100
		if s != want {
			t.Fatalf("episode %d start %v, want %v (stream shifted)", i, s, want)
		}
	}
	if gotState == nil {
		t.Fatal("no state")
	}
}

func TestFaultyEpisodeDeterminism(t *testing.T) {
	run := func() ([]tensor.Vector, []float64, []int) {
		e, err := New(testSystem(), faultyConfig(), rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		var states []tensor.Vector
		var rewards []float64
		var survivors []int
		for ep := 0; ep < 3; ep++ {
			s, err := e.Reset()
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, s)
			for {
				res, err := e.StepInto(tensor.NewVector(e.ActionDim()))
				if err != nil {
					t.Fatal(err)
				}
				states = append(states, res.State.Clone())
				rewards = append(rewards, res.Reward)
				survivors = append(survivors, res.Iter.Survivors)
				if res.Done {
					break
				}
			}
		}
		return states, rewards, survivors
	}
	s1, r1, v1 := run()
	s2, r2, v2 := run()
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(v1, v2) {
		t.Fatal("same seed produced different faulty trajectories")
	}
	// Churn must actually occur across 36 iterations at CrashProb 0.25.
	saw := false
	for _, v := range v1 {
		if v < 3 {
			saw = true
			break
		}
	}
	if !saw {
		t.Fatal("no device ever missed a round under churn")
	}
}

func TestDownDevicesMaskedInState(t *testing.T) {
	cfg := faultyConfig()
	cfg.Faults = &fault.Config{CrashProb: 1, RejoinProb: 0.001}
	e, err := New(testSystem(), cfg, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ResetAtFaults(50, 9); err != nil {
		t.Fatal(err)
	}
	// After iteration 0 every device has crashed (CrashProb 1); the state
	// for iteration 1 must be all zeros.
	res, err := e.StepInto(tensor.NewVector(e.ActionDim()))
	if err != nil {
		t.Fatal(err)
	}
	down := e.Down()
	if down == nil {
		t.Fatal("no down mask under faults")
	}
	for i, d := range down {
		if !d {
			t.Fatalf("device %d should be down at iteration 1", i)
		}
	}
	for i, v := range res.State {
		if v != 0 {
			t.Fatalf("state[%d] = %v, want 0 for a fully-crashed fleet", i, v)
		}
	}
}

func TestMaskState(t *testing.T) {
	s := tensor.Vector{1, 2, 3, 4, 5, 6}
	MaskState(s, []bool{false, true, false}, 1) // H+1 = 2 slots per device
	want := tensor.Vector{1, 2, 0, 0, 5, 6}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("masked state %v, want %v", s, want)
	}
	MaskState(s, nil, 1) // no-op
	if !reflect.DeepEqual(s, want) {
		t.Fatal("nil mask mutated state")
	}
}

func TestResetAtFaultSeedsDiffer(t *testing.T) {
	e, err := New(testSystem(), faultyConfig(), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	trajectory := func(seed int64) []int {
		if _, err := e.ResetAtFaults(20, seed); err != nil {
			t.Fatal(err)
		}
		var surv []int
		for {
			res, err := e.StepInto(tensor.NewVector(e.ActionDim()))
			if err != nil {
				t.Fatal(err)
			}
			surv = append(surv, res.Iter.Survivors)
			if res.Done {
				break
			}
		}
		return surv
	}
	a := trajectory(1)
	b := trajectory(2)
	c := trajectory(1)
	if !reflect.DeepEqual(a, c) {
		t.Fatal("same fault seed diverged")
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("different fault seeds produced identical survivor sequences")
	}
}
