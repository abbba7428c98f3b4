package repro

// One benchmark per paper table/figure, plus kernel micro-benchmarks. The
// figure benches exercise the exact experiment code paths at reduced sizes
// so `go test -bench=.` completes in minutes; the full-size regeneration is
// `go run ./cmd/flexperiments -out results`. Shapes to check against the
// paper are recorded in EXPERIMENTS.md.

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fedavg"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/sched"
	"repro/internal/tensor"
)

// BenchmarkFig2TraceDynamics regenerates the Fig. 2 bandwidth traces
// (three 4G walking traces and one HSDPA bus trace over 400 s).
func BenchmarkFig2TraceDynamics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(400, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Walking) != 3 {
			b.Fatal("wrong trace count")
		}
	}
}

// BenchmarkFig6Convergence runs the offline DRL training loop of Fig. 6
// (Algorithm 1) at a reduced episode budget on the 3-device testbed.
func BenchmarkFig6Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(experiments.TestbedScenario(1), experiments.TrainOptions{
			Episodes: 25, Hidden: []int{32, 32}, Arch: core.ArchJoint, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.AvgCost) != 25 {
			b.Fatal("wrong episode count")
		}
	}
}

// BenchmarkFig7Performance runs the testbed comparison of Fig. 7(a)–(f):
// DRL vs Heuristic [3] vs Static [4] with pooled CDFs.
func BenchmarkFig7Performance(b *testing.B) {
	sc := experiments.TestbedScenario(1)
	res6, err := experiments.Fig6(sc, experiments.TrainOptions{
		Episodes: 25, Hidden: []int{32, 32}, Arch: core.ArchJoint, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(sc, res6.Agent, experiments.CompareOptions{
			Iterations: 50, Runs: 2, StaticSamples: 2, IncludeExtras: true, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := res.Summary("drl"); !ok {
			b.Fatal("missing drl row")
		}
	}
}

// BenchmarkFig8Scale runs the scalability simulation of Fig. 8 (reduced
// from 50 to 16 devices) with the weight-shared actor.
func BenchmarkFig8Scale(b *testing.B) {
	sc := experiments.SimulationScenario(16, 1)
	sys, err := sc.Build()
	if err != nil {
		b.Fatal(err)
	}
	agent, _, err := experiments.TrainAgent(sys, experiments.TrainOptions{
		Episodes: 15, Hidden: []int{16, 16}, Arch: core.ArchShared, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(sc, agent, experiments.CompareOptions{
			Iterations: 40, Runs: 1, StaticSamples: 2, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.FirstRunCosts) == 0 {
			b.Fatal("no cost series")
		}
	}
}

// BenchmarkAblationStaticSamples sweeps the Static baseline's estimate
// quality (DESIGN.md ablation index).
func BenchmarkAblationStaticSamples(b *testing.B) {
	sc := experiments.TestbedScenario(1)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationStaticSamples(sc, []int{1, 3, 10}, 2, 25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBarrierAwareness measures the value of barrier-aware
// planning alone (no learning), the paper's structural insight.
func BenchmarkAblationBarrierAwareness(b *testing.B) {
	sc := experiments.TestbedScenario(1)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationBarrierAwareness(sc, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- kernel micro-benchmarks ------------------------------------------

// BenchmarkSimIteration measures one synchronous FL iteration (trace
// integration + barrier) on the 50-device system — the simulator's hot loop.
func BenchmarkSimIteration(b *testing.B) {
	sys, err := experiments.SimulationScenario(50, 1).Build()
	if err != nil {
		b.Fatal(err)
	}
	freqs := make([]float64, sys.N())
	for i, d := range sys.Devices {
		freqs[i] = 0.7 * d.MaxFreqHz
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunIteration(0, float64(i%1000), freqs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPPOBatch builds the paper-scale PPO agent (18-dim state, 3 actions,
// 64×64 joint actor) plus a 256-sample batch for the update benchmarks.
func benchPPOBatch(b *testing.B, workers int) (*rl.PPO, *rl.Batch) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	stateDim, actionDim := 18, 3
	actor := rl.NewGaussianPolicy(stateDim, actionDim, []int{64, 64}, 0.4, rng)
	critic := nn.NewMLP([]int{stateDim, 64, 64, 1}, nn.Tanh, nn.Identity, rng)
	cfg := rl.DefaultPPOConfig()
	cfg.TargetKL = 0
	cfg.Workers = workers
	agent, err := rl.NewPPO(cfg, actor, critic, rng)
	if err != nil {
		b.Fatal(err)
	}
	buf := rl.NewBuffer(256)
	for !buf.Full() {
		s := tensor.NewVector(stateDim)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		a, logp := actor.Sample(s, rng)
		buf.Add(rl.Transition{State: s, Action: a.Clone(), Reward: rng.NormFloat64(),
			LogProb: logp, Value: agent.Value(s), Done: rng.Intn(40) == 0})
	}
	return agent, rl.MakeBatchInto(&rl.Batch{}, buf, 0, cfg.Gamma, cfg.Lambda)
}

// BenchmarkPPOUpdate measures one PPO update over a 256-sample buffer with
// the paper-scale joint actor (single-threaded engine).
func BenchmarkPPOUpdate(b *testing.B) {
	agent, batch := benchPPOBatch(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agent.Update(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPPOUpdateParallel is the same update with four engine workers.
// The result bits are identical to BenchmarkPPOUpdate at any -cpu value —
// only wall-clock time may move (see DESIGN.md §15).
func BenchmarkPPOUpdateParallel(b *testing.B) {
	agent, batch := benchPPOBatch(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agent.Update(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA2CUpdate measures one A2C update over the same 256-sample batch
// shape on the single-threaded engine path.
func BenchmarkA2CUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	stateDim, actionDim := 18, 3
	actor := rl.NewGaussianPolicy(stateDim, actionDim, []int{64, 64}, 0.4, rng)
	critic := nn.NewMLP([]int{stateDim, 64, 64, 1}, nn.Tanh, nn.Identity, rng)
	agent, err := rl.NewA2C(rl.DefaultA2CConfig(), actor, critic)
	if err != nil {
		b.Fatal(err)
	}
	buf := rl.NewBuffer(256)
	for !buf.Full() {
		s := tensor.NewVector(stateDim)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		a, logp := actor.Sample(s, rng)
		buf.Add(rl.Transition{State: s, Action: a.Clone(), Reward: rng.NormFloat64(),
			LogProb: logp, Value: critic.Forward(s)[0], Done: rng.Intn(40) == 0})
	}
	batch := rl.MakeBatchInto(&rl.Batch{}, buf, 0, 0.99, 0.95)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agent.Update(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyForward measures one deterministic action decision at
// N=50 with the shared actor — the per-iteration online-reasoning cost.
func BenchmarkPolicyForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := rl.NewSharedGaussianPolicy(50, 6, []int{32, 32}, 0.4, rng)
	s := tensor.NewVector(p.StateDim())
	for i := range s {
		s[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Mean(s)
	}
}

// BenchmarkMatMul measures the batched matmul kernel at the PPO-minibatch
// shape (256 samples through a 64-unit layer) on the calling goroutine.
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := tensor.NewMatrix(256, 64)
	w := tensor.NewMatrix(64, 64)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	dst, bias := tensor.NewMatrix(256, 64), tensor.NewVector(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulTransB(dst, a, w, bias)
	}
}

// BenchmarkMLPForwardBatched pushes a 256-sample minibatch through the
// paper-scale actor in one matrix pass per layer — the batched counterpart
// of BenchmarkPolicyForward's single-sample path.
func BenchmarkMLPForwardBatched(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := nn.NewMLP([]int{18, 64, 64, 3}, nn.Tanh, nn.Identity, rng)
	X := tensor.NewMatrix(256, 18)
	for i := range X.Data {
		X.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(X)
	}
}

// BenchmarkParallelEpisodes trains a short run with wave-parallel episode
// collection, one rollout worker per available CPU. Run with -cpu 1,4 to
// compare widths; the trained agent is identical at every width.
func BenchmarkParallelEpisodes(b *testing.B) {
	sc := experiments.TestbedScenario(1)
	sys, err := sc.Build()
	if err != nil {
		b.Fatal(err)
	}
	opts := experiments.TrainOptions{
		Episodes: 8, Hidden: []int{32, 32}, Arch: core.ArchJoint, Seed: 1,
		Workers: runtime.GOMAXPROCS(0),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.TrainAgent(sys, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanFrequencies measures the baselines' 1-D planner at N=50.
func BenchmarkPlanFrequencies(b *testing.B) {
	sys, err := experiments.SimulationScenario(50, 1).Build()
	if err != nil {
		b.Fatal(err)
	}
	bw := make([]float64, sys.N())
	for i := range bw {
		bw[i] = 1e6 + float64(i)*1e5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.PlanFrequencies(sys, bw, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFedAvgRound measures one real FedAvg round (local SGD on every
// client + weighted aggregation) on the loss-constraint substrate.
func BenchmarkFedAvgRound(b *testing.B) {
	cfg := fedavg.DefaultSyntheticConfig(10)
	clients, _, err := fedavg.GenerateSynthetic(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	fed, err := fedavg.NewFederation(clients, fedavg.NewLogisticModel(cfg.Dim, 1e-4), 1, 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fed.Round()
	}
}

// BenchmarkUploadSolver measures the continuous-time upload-completion
// solver (eq. 3) on a long volatile trace.
func BenchmarkUploadSolver(b *testing.B) {
	sys, err := experiments.TestbedScenario(1).Build()
	if err != nil {
		b.Fatal(err)
	}
	tr := sys.Traces[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.UploadFinish(float64(i%3000), 25e6); err != nil {
			b.Fatal(err)
		}
	}
}
