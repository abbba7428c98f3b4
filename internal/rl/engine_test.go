package rl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// plainPolicy hides the batched and sharding methods of a policy, leaving a
// Policy that the engine cannot train.
type plainPolicy struct{ Policy }

// buildEnginePPO builds a PPO with an engine-sized minibatch (several
// 16-row gradient blocks per step) and a configurable worker count.
func buildEnginePPO(t *testing.T, arch string, seed int64, workers int) (*PPO, Policy, *nn.MLP) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var actor Policy
	switch arch {
	case "joint":
		actor = NewGaussianPolicy(12, 4, []int{16, 16}, 0.4, rng)
	case "shared":
		actor = NewSharedGaussianPolicy(4, 3, []int{8, 8}, 0.4, rng)
	default:
		t.Fatalf("unknown arch %q", arch)
	}
	critic := nn.NewMLP([]int{12, 16, 16, 1}, nn.Tanh, nn.Identity, rng)
	cfg := DefaultPPOConfig()
	cfg.Epochs = 3
	cfg.MinibatchSize = 24 // two blocks, plus a short trailing minibatch
	cfg.TargetKL = 0
	cfg.Workers = workers
	p, err := NewPPO(cfg, actor, critic, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	return p, actor, critic
}

// TestPPOUpdateWorkerInvariance is the engine's central determinism
// contract: the fixed block decomposition plus the worker-count-independent
// merge tree make the whole training trajectory bit-identical at any worker
// count. Five updates at Workers ∈ {0, 1, 2, 8} must agree to the last bit.
func TestPPOUpdateWorkerInvariance(t *testing.T) {
	for _, arch := range []string{"joint", "shared"} {
		t.Run(arch, func(t *testing.T) {
			base, baseActor, baseCritic := buildEnginePPO(t, arch, 17, 0)
			batchRng := rand.New(rand.NewSource(23))
			batches := make([]*Batch, 5)
			for i := range batches {
				batches[i] = randomBatchFor(baseActor, baseCritic, 57, batchRng)
			}
			baseStats := make([]UpdateStats, len(batches))
			for i, b := range batches {
				st, err := base.Update(b)
				if err != nil {
					t.Fatal(err)
				}
				baseStats[i] = st
			}
			for _, workers := range []int{1, 2, 8} {
				p, actor, critic := buildEnginePPO(t, arch, 17, workers)
				for i, b := range batches {
					st, err := p.Update(b)
					if err != nil {
						t.Fatal(err)
					}
					if st != baseStats[i] {
						t.Fatalf("workers=%d update %d stats diverge:\n%+v\n%+v",
							workers, i, st, baseStats[i])
					}
				}
				compareParams(t, "actor", actor.Params(), baseActor.Params())
				compareParams(t, "critic", critic.Params(), baseCritic.Params())
			}
		})
	}
}

// TestA2CUpdateWorkerInvariance: the same contract for the A2C engine path.
func TestA2CUpdateWorkerInvariance(t *testing.T) {
	build := func(workers int) (*A2C, Policy, *nn.MLP) {
		rng := rand.New(rand.NewSource(31))
		actor := NewGaussianPolicy(10, 3, []int{16}, 0.4, rng)
		critic := nn.NewMLP([]int{10, 16, 1}, nn.Tanh, nn.Identity, rng)
		cfg := DefaultA2CConfig()
		cfg.Workers = workers
		a, err := NewA2C(cfg, actor, critic)
		if err != nil {
			t.Fatal(err)
		}
		return a, actor, critic
	}
	base, baseActor, baseCritic := build(0)
	batchRng := rand.New(rand.NewSource(41))
	batches := make([]*Batch, 5)
	for i := range batches {
		batches[i] = randomBatchFor(baseActor, baseCritic, 53, batchRng)
	}
	baseStats := make([]UpdateStats, len(batches))
	for i, b := range batches {
		st, err := base.Update(b)
		if err != nil {
			t.Fatal(err)
		}
		baseStats[i] = st
	}
	for _, workers := range []int{1, 2, 8} {
		a, actor, critic := build(workers)
		for i, b := range batches {
			st, err := a.Update(b)
			if err != nil {
				t.Fatal(err)
			}
			if st != baseStats[i] {
				t.Fatalf("workers=%d update %d stats diverge:\n%+v\n%+v",
					workers, i, st, baseStats[i])
			}
		}
		compareParams(t, "actor", actor.Params(), baseActor.Params())
		compareParams(t, "critic", critic.Params(), baseCritic.Params())
	}
}

// TestPPOUpdateBatchedMatchesSequential checks the engine's batched kernels
// against a sequential reference written out here: the merged actor and
// critic gradients of one minibatch must equal the per-sample accumulation
// of Policy.BackwardLogProb and MLP.Backward over the same rows, up to
// summation order (the engine sums 16-row blocks, then merges them
// pairwise). 37 rows leave a short trailing block of 5, and every third row
// has zero upstream, which the batched backward must skip.
func TestPPOUpdateBatchedMatchesSequential(t *testing.T) {
	const rows = 37
	for _, arch := range []string{"joint", "shared"} {
		t.Run(arch, func(t *testing.T) {
			_, actor, critic := buildEnginePPO(t, arch, 83, 0)
			refActor, refCritic := actor.ClonePolicy(), critic.Clone()
			rng := rand.New(rand.NewSource(89))
			S := tensor.NewMatrix(rows, actor.StateDim())
			A := tensor.NewMatrix(rows, actor.ActionDim())
			dV := tensor.NewMatrix(rows, 1)
			for i := range S.Data {
				S.Data[i] = rng.NormFloat64()
			}
			for i := range A.Data {
				A.Data[i] = 0.3 * rng.NormFloat64()
			}
			upstream := tensor.NewVector(rows)
			for i := range upstream {
				if i%3 != 0 {
					upstream[i] = rng.NormFloat64()
				}
				dV.Data[i] = rng.NormFloat64()
			}

			e := newShardEngine(actor.(*GaussianPolicy), critic, 2)
			logp := tensor.NewVector(rows)
			V := e.forward(S, A, logp, true)
			e.backward(upstream, dV, nil, true)

			refActor.ZeroGrad()
			refCritic.ZeroGrad()
			for i := 0; i < rows; i++ {
				s, a := S.Row(i).Clone(), A.Row(i).Clone()
				if lp := refActor.LogProb(s, a); lp != logp[i] {
					t.Fatalf("row %d: engine log-prob %v, per-sample %v", i, logp[i], lp)
				}
				if v := refCritic.Forward(s)[0]; v != V[i] {
					t.Fatalf("row %d: engine value %v, per-sample %v", i, V[i], v)
				}
				if upstream[i] != 0 {
					refActor.BackwardLogProb(s, a, upstream[i])
				}
				refCritic.Backward(tensor.Vector{dV.Data[i]})
			}
			checkGrads := func(label string, got, want []nn.Param) {
				t.Helper()
				for i := range want {
					for j, w := range want[i].G {
						if g := got[i].G[j]; math.Abs(g-w) > 1e-9*(1+math.Abs(w)) {
							t.Fatalf("%s %s grad[%d]: engine %v, per-sample %v", label, want[i].Name, j, g, w)
						}
					}
				}
			}
			checkGrads("actor", actor.Params(), refActor.Params())
			checkGrads("critic", critic.Params(), refCritic.Params())
		})
	}
}

// legacyUpdate is the PPO update as the per-sample and monolithic batched
// paths computed it before the engine: each minibatch accumulates
// Policy.BackwardLogProb and MLP.Backward in sample order, then clips with
// nn.ClipGradNorm and steps with Adam.Step, unfused. It covers what
// TestPPOUpdateEngineMatchesLegacyBatched feeds it: unconstrained PPO,
// TargetKL disabled, finite data.
func legacyUpdate(cfg PPOConfig, actor Policy, critic *nn.MLP, rng *rand.Rand, batch *Batch) UpdateStats {
	actorOpt, criticOpt := nn.NewAdam(cfg.ActorLR), nn.NewAdam(cfg.CriticLR)
	n := batch.Len()
	mb := cfg.MinibatchSize
	if mb <= 0 || mb > n {
		mb = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	lo, hi := 1-cfg.ClipEps, 1+cfg.ClipEps
	var st UpdateStats
	var samples, clipped int
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < n; start += mb {
			end := min(start+mb, n)
			size := float64(end - start)
			var mbPolicy, mbValue float64
			actor.ZeroGrad()
			critic.ZeroGrad()
			for _, k := range idx[start:end] {
				s, a, adv := batch.States[k], batch.Actions[k], batch.Advantages[k]
				diff := min(actor.LogProb(s, a)-batch.OldLogProb[k], 30)
				ratio := math.Exp(diff)
				clippedRatio := math.Min(math.Max(ratio, lo), hi)
				surr1, surr2 := ratio*adv, clippedRatio*adv
				mbPolicy += -math.Min(surr1, surr2)
				if ratio < lo || ratio > hi {
					clipped++
				}
				if surr1 <= surr2 || clippedRatio == ratio {
					actor.BackwardLogProb(s, a, -adv*ratio/size)
				}
				verr := critic.Forward(s)[0] - batch.Returns[k]
				mbValue += verr * verr
				critic.Backward(tensor.Vector{2 * verr / size})
			}
			actor.AddEntropyGrad(-cfg.EntropyCoef)
			nn.ClipGradNorm(actor.Params(), cfg.MaxGradNorm)
			actorOpt.Step(actor.Params())
			nn.ClipGradNorm(critic.Params(), cfg.MaxGradNorm)
			criticOpt.Step(critic.Params())
			st.PolicyLoss += mbPolicy
			st.ValueLoss += mbValue
			samples += end - start
		}
		st.EpochsRun++
	}
	st.PolicyLoss /= float64(samples)
	st.ValueLoss /= float64(samples)
	st.ClipFraction = float64(clipped) / float64(samples)
	st.Entropy = actor.Entropy()
	var kl float64
	for k := 0; k < n; k++ {
		kl += batch.OldLogProb[k] - actor.LogProb(batch.States[k], batch.Actions[k])
	}
	st.ApproxKL = kl / float64(n)
	return st
}

// TestPPOUpdateEngineMatchesLegacyBatched bounds the drift of a whole
// engine update (3 epochs, minibatches of 24 with a short trailing one of 9)
// from legacyUpdate. Per-row forward bits are identical (row-independent
// kernels), but gradient summation grouping differs — the engine sums
// 16-row blocks then merges, the legacy update sums the whole minibatch in
// sample order — so losses and parameters may differ at rounding level. The
// discrete statistics must agree exactly.
func TestPPOUpdateEngineMatchesLegacyBatched(t *testing.T) {
	const tol = 1e-8
	for _, arch := range []string{"joint", "shared"} {
		t.Run(arch, func(t *testing.T) {
			pe, actorE, criticE := buildEnginePPO(t, arch, 59, 0)
			_, actorL, criticL := buildEnginePPO(t, arch, 59, 0)
			batch := randomBatchFor(actorE, criticE, 57, rand.New(rand.NewSource(61)))
			stE, err := pe.Update(batch)
			if err != nil {
				t.Fatal(err)
			}
			// buildEnginePPO seeds the update's shuffle with seed+1.
			stL := legacyUpdate(pe.Cfg, actorL, criticL, rand.New(rand.NewSource(60)), batch)
			if stE.EpochsRun != stL.EpochsRun || stE.SkippedMinibatches != stL.SkippedMinibatches ||
				stE.Restored != stL.Restored || stE.ClipFraction != stL.ClipFraction {
				t.Fatalf("discrete stats diverge:\nengine %+v\nlegacy %+v", stE, stL)
			}
			for _, d := range []struct {
				name string
				e, l float64
			}{
				{"policy", stE.PolicyLoss, stL.PolicyLoss},
				{"value", stE.ValueLoss, stL.ValueLoss},
				{"kl", stE.ApproxKL, stL.ApproxKL},
				{"entropy", stE.Entropy, stL.Entropy},
			} {
				if diff := math.Abs(d.e - d.l); diff > tol*(1+math.Abs(d.l)) {
					t.Fatalf("%s drift %v: engine %v legacy %v", d.name, diff, d.e, d.l)
				}
			}
			checkClose := func(label string, a, b []nn.Param) {
				t.Helper()
				for i := range a {
					for j := range a[i].W {
						diff := math.Abs(a[i].W[j] - b[i].W[j])
						if diff > tol*(1+math.Abs(b[i].W[j])) {
							t.Fatalf("%s %s[%d] drift %v: %v vs %v",
								label, a[i].Name, j, diff, a[i].W[j], b[i].W[j])
						}
					}
				}
			}
			checkClose("actor", actorE.Params(), actorL.Params())
			checkClose("critic", criticE.Params(), criticL.Params())
		})
	}
}

// TestNonShardedActorRejected: PPO and A2C run only on the engine, so their
// constructors must refuse an actor it cannot train.
func TestNonShardedActorRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	actor := plainPolicy{NewGaussianPolicy(6, 2, []int{8}, 0.5, rng)}
	critic := nn.NewMLP([]int{6, 8, 1}, nn.Tanh, nn.Identity, rng)
	if _, err := NewPPO(DefaultPPOConfig(), actor, critic, rng); err == nil {
		t.Error("NewPPO accepted a non-sharded actor")
	}
	if _, err := NewA2C(DefaultA2CConfig(), actor, critic); err == nil {
		t.Error("NewA2C accepted a non-sharded actor")
	}
}

// TestMakeBatchIntoMatchesMakeBatch pins the reusable batch conversion to
// the allocating one, including reuse across differently-sized buffers.
func TestMakeBatchIntoMatchesMakeBatch(t *testing.T) {
	actorRng := rand.New(rand.NewSource(72))
	actor := NewGaussianPolicy(6, 2, []int{8}, 0.5, actorRng)
	critic := nn.NewMLP([]int{6, 8, 1}, nn.Tanh, nn.Identity, actorRng)
	dst := &Batch{}
	for _, n := range []int{19, 7, 31} {
		want := randomBatchFor(actor, critic, n, rand.New(rand.NewSource(int64(n))))
		buf := NewBuffer(n)
		for i := 0; i < n; i++ {
			buf.Add(Transition{
				State:   want.States[i],
				Action:  want.Actions[i],
				LogProb: want.OldLogProb[i],
				Reward:  float64(i%5) - 2,
				Value:   float64(i%3) * 0.25,
				Done:    i%7 == 0,
			})
		}
		got := MakeBatchInto(dst, buf, 0.5, 0.95, 0.9)
		ref := MakeBatchInto(&Batch{}, buf, 0.5, 0.95, 0.9)
		if got != dst {
			t.Fatal("MakeBatchInto must return dst")
		}
		if got.Len() != ref.Len() {
			t.Fatalf("len %d vs %d", got.Len(), ref.Len())
		}
		for i := 0; i < ref.Len(); i++ {
			if got.OldLogProb[i] != ref.OldLogProb[i] ||
				got.Advantages[i] != ref.Advantages[i] ||
				got.Returns[i] != ref.Returns[i] {
				t.Fatalf("n=%d row %d diverges", n, i)
			}
		}
	}
}
