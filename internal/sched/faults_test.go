package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/env"
	"repro/internal/fault"
	"repro/internal/fl"
	"repro/internal/rl"
)

func faultOpts(t *testing.T, n int, seed int64) fl.IterOptions {
	t.Helper()
	sched, err := fault.NewSchedule(fault.Config{
		CrashProb: 0.2, RejoinProb: 0.5, BlackoutProb: 0.2, StragglerProb: 0.1,
	}, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return fl.IterOptions{Deadline: 600, Faults: sched}
}

// Zero options through RunOpts must match Run bit-for-bit.
func TestRunOptsZeroMatchesRun(t *testing.T) {
	sys := dynamicSystem(3, 7)
	plain, err := Run(sys, MaxFreq{}, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	opted, err := RunOpts(sys, MaxFreq{}, 0, 20, fl.IterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, opted) {
		t.Fatal("zero IterOptions changed the run")
	}
}

// Every baseline must complete a faulty run — devices crashing mid-run must
// not crash the scheduler.
func TestBaselinesDegradeGracefully(t *testing.T) {
	sys := dynamicSystem(4, 3)
	minFrac := 0.05
	heur, err := NewHeuristic([]float64{2e6, 2e6, 2e6, 2e6}, minFrac)
	if err != nil {
		t.Fatal(err)
	}
	static, err := NewStaticSampled(sys, 2, minFrac, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	random, err := NewRandom(minFrac, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheduler{MaxFreq{}, heur, static, random} {
		its, err := RunOpts(sys, s, 0, 50, faultOpts(t, sys.N(), 17))
		if err != nil {
			t.Fatalf("%s under faults: %v", s.Name(), err)
		}
		surv := Survivors(its)
		churn := false
		for _, v := range surv {
			if v < sys.N() {
				churn = true
			}
			if v < 0 || v > sys.N() {
				t.Fatalf("%s: survivor count %d out of range", s.Name(), v)
			}
		}
		if !churn {
			t.Fatalf("%s: fault schedule inert over 50 iterations", s.Name())
		}
	}
}

func TestFaultyRunDeterminism(t *testing.T) {
	sys := dynamicSystem(3, 9)
	heur, err := NewHeuristic([]float64{2e6, 2e6, 2e6}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunOpts(sys, heur, 10, 40, faultOpts(t, 3, 23))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOpts(sys, heur, 10, 40, faultOpts(t, 3, 23))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same fault seed produced different runs")
	}
}

// A poisoned LastBW entry (NaN/zero from a device that vanished) must fall
// back to the initial estimate instead of erroring out of PlanFrequencies.
func TestHeuristicSanitizesMissingObservations(t *testing.T) {
	sys := constSystem([]float64{5e6, 2e6, 1e6})
	heur, err := NewHeuristic([]float64{4e6, 3e6, 2e6}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ctx := Context{Sys: sys, Clock: 0, Iter: 1, LastBW: []float64{5e6, math.NaN(), 0}}
	fs, err := heur.Frequencies(ctx)
	if err != nil {
		t.Fatalf("heuristic died on corrupt observations: %v", err)
	}
	// The sanitized plan must equal planning against the patched vector.
	want, err := PlanFrequencies(sys, []float64{5e6, 3e6, 2e6}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fs, want) {
		t.Fatalf("sanitized plan %v, want %v", fs, want)
	}
	// The caller's slice must not have been mutated.
	if !math.IsNaN(ctx.LastBW[1]) || ctx.LastBW[2] != 0 {
		t.Fatal("heuristic mutated the caller's LastBW")
	}
}

// The DRL scheduler must mask crashed devices exactly like the training
// environment, and complete a faulty run.
func TestDRLMasksDownDevices(t *testing.T) {
	sys := dynamicSystem(3, 5)
	cfg := env.DefaultConfig()
	policy := rl.NewGaussianPolicy(sys.N()*(cfg.History+1), sys.N(), []int{8}, 0.1, rand.New(rand.NewSource(1)))
	drl, err := NewDRL(policy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := Context{Sys: sys, Clock: 100, Iter: 0}
	fsUp, err := drl.Frequencies(base)
	if err != nil {
		t.Fatal(err)
	}
	masked := base
	masked.Down = []bool{false, true, false}
	fsDown, err := drl.Frequencies(masked)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(fsUp, fsDown) {
		t.Fatal("down mask did not change the DRL state/action")
	}
	// And a full faulty run completes.
	if _, err := RunOpts(sys, drl, 0, 30, faultOpts(t, 3, 31)); err != nil {
		t.Fatalf("DRL under faults: %v", err)
	}
}
