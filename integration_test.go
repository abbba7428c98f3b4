package repro

// Cross-module integration tests: these drive the same end-to-end paths as
// the cmd binaries (train → persist → reload → evaluate) and assert the
// invariants that hold across package boundaries.

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fedavg"
	"repro/internal/fl"
	"repro/internal/sched"
	"repro/internal/stats"
)

func tinyTrain(t *testing.T, sys *fl.System, arch core.Arch, seed int64) *core.Agent {
	t.Helper()
	agent, eps, err := experiments.TrainAgent(sys, experiments.TrainOptions{
		Episodes: 8, Hidden: []int{12}, Arch: arch, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 8 {
		t.Fatalf("trained %d episodes", len(eps))
	}
	return agent
}

func TestEndToEndPipeline(t *testing.T) {
	sc := experiments.TestbedScenario(100)
	sys, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	agent := tinyTrain(t, sys, core.ArchJoint, 1)

	// Persist → reload → identical decisions (the fltrain → flsim path).
	path := filepath.Join(t.TempDir(), "agent.json")
	if err := agent.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadAgent(path)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := agent.Scheduler()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := loaded.Scheduler()
	if err != nil {
		t.Fatal(err)
	}
	ctx := sched.Context{Sys: sys, Clock: 250}
	f1, err := d1.Frequencies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := d2.Frequencies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatal("reloaded agent diverges")
		}
	}

	// Evaluate and check cross-module accounting: every iteration's cost
	// must decompose as T^k + λ·ΣE with the device-level equations.
	results, err := core.Evaluate(sys, []sched.Scheduler{d1, sched.MaxFreq{}}, 0, 25)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		for _, it := range r.Iterations {
			var maxT, sumE float64
			for i, ds := range it.Devices {
				dev := sys.Devices[i]
				wantCmp := dev.ComputeTime(sys.Tau, ds.FreqHz)
				if math.Abs(ds.ComputeTime-wantCmp) > 1e-9 {
					t.Fatalf("eq.(1) violated: %v vs %v", ds.ComputeTime, wantCmp)
				}
				wantE := dev.ComputeEnergy(sys.Tau, ds.FreqHz)
				if math.Abs(ds.ComputeEnergy-wantE) > 1e-6 {
					t.Fatalf("eq.(6) violated: %v vs %v", ds.ComputeEnergy, wantE)
				}
				if ds.TotalTime > maxT {
					maxT = ds.TotalTime
				}
				sumE += ds.ComputeEnergy + ds.TxEnergy
			}
			if math.Abs(it.Duration-maxT) > 1e-9 {
				t.Fatal("eq.(5) violated: duration != max total time")
			}
			if math.Abs(it.Cost-(it.Duration+sys.Lambda*sumE)) > 1e-6 {
				t.Fatal("eq.(9) violated: cost decomposition")
			}
		}
	}
}

func TestSeedReproducibility(t *testing.T) {
	// The whole pipeline is deterministic under a seed: two identical runs
	// produce bit-identical evaluation costs.
	run := func() []float64 {
		sc := experiments.TestbedScenario(7)
		sys, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		agent := tinyTrain(t, sys, core.ArchJoint, 3)
		drl, err := agent.Scheduler()
		if err != nil {
			t.Fatal(err)
		}
		its, err := sched.Run(sys, drl, 0, 20)
		if err != nil {
			t.Fatal(err)
		}
		return sched.Costs(its)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration %d differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSchedulingNeverTouchesLearning(t *testing.T) {
	// The controller changes when rounds finish, never what FedAvg learns:
	// running the same federation under two different schedulers produces
	// bit-identical global models after the same number of rounds.
	cfg := fedavg.DefaultSyntheticConfig(3)
	cfg.SamplesMin, cfg.SamplesMax = 40, 60
	sc := experiments.TestbedScenario(5)
	sys, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}

	train := func(s sched.Scheduler) ([]float64, float64) {
		clients, _, err := fedavg.GenerateSynthetic(cfg, 9)
		if err != nil {
			t.Fatal(err)
		}
		fed, err := fedavg.NewFederation(clients, fedavg.NewLogisticModel(cfg.Dim, 0), 1, 0.05, 4)
		if err != nil {
			t.Fatal(err)
		}
		ses, err := fl.NewSession(sys, 0)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 5; k++ {
			ctx := sched.Context{Sys: sys, Clock: ses.Clock, Iter: k, LastBW: ses.LastBandwidths()}
			freqs, err := s.Frequencies(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ses.Step(freqs); err != nil {
				t.Fatal(err)
			}
			fed.Round()
		}
		return fed.Global.Params(), ses.Clock
	}

	h, err := sched.NewHeuristic([]float64{3e6, 3e6, 3e6}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	pMax, clockMax := train(sched.MaxFreq{})
	pHeu, clockHeu := train(h)
	for i := range pMax {
		if pMax[i] != pHeu[i] {
			t.Fatal("scheduler changed the learned model")
		}
	}
	// But wall-clock must differ: the heuristic slows non-critical devices.
	if clockMax == clockHeu {
		t.Fatal("schedulers produced identical wall clocks — scheduling had no effect")
	}
}

func TestEvaluateStatisticallySane(t *testing.T) {
	// Oracle ≤ mean(Random) in cost; MaxFreq has minimal time among all.
	sc := experiments.TestbedScenario(9)
	sys, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	or, err := sched.NewOracle(0.05, 60)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.Compare("sanity", sc, tinyTrain(t, sys, core.ArchJoint, 2),
		experiments.CompareOptions{Iterations: 40, Runs: 2, StaticSamples: 3, IncludeExtras: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	orc, _ := res.Summary("oracle")
	rnd, _ := res.Summary("random")
	mf, _ := res.Summary("maxfreq")
	if orc.MeanCost >= rnd.MeanCost {
		t.Fatalf("oracle %v not better than random %v", orc.MeanCost, rnd.MeanCost)
	}
	for _, s := range res.Summaries {
		if mf.MeanTime > s.MeanTime+1e-9 {
			t.Fatalf("maxfreq time %v exceeds %s's %v", mf.MeanTime, s.Name, s.MeanTime)
		}
	}
	_ = or
	// Pooled sample counts line up with iterations × runs.
	if len(orc.Costs) != 80 {
		t.Fatalf("pooled %d samples", len(orc.Costs))
	}
	m := stats.Mean(orc.Costs)
	if math.Abs(m-orc.MeanCost) > 1e-9 {
		t.Fatal("summary mean inconsistent with pooled samples")
	}
}
