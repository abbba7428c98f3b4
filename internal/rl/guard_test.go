package rl

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func guardBatch(n, stateDim, actionDim int, seed int64) *Batch {
	rng := rand.New(rand.NewSource(seed))
	b := &Batch{}
	for i := 0; i < n; i++ {
		s := tensor.NewVector(stateDim)
		a := tensor.NewVector(actionDim)
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		for j := range a {
			a[j] = 0.3 * rng.NormFloat64()
		}
		b.States = append(b.States, s)
		b.Actions = append(b.Actions, a)
		b.OldLogProb = append(b.OldLogProb, -1.0+0.1*rng.NormFloat64())
		b.Advantages = append(b.Advantages, rng.NormFloat64())
		b.Returns = append(b.Returns, rng.NormFloat64())
	}
	return b
}

// snapshotParams deep-copies parameter values (not gradients).
func snapshotParams(params []nn.Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.W...)
	}
	return out
}

func guardPPO(t *testing.T, cfg PPOConfig) *PPO {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	actor := NewGaussianPolicy(4, 2, []int{6}, 0.3, rng)
	critic := nn.NewMLP([]int{4, 6, 1}, nn.Tanh, nn.Identity, rng)
	p, err := NewPPO(cfg, actor, critic, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// A NaN advantage poisons its whole minibatch: with the minibatch spanning
// the entire batch, every epoch must be skipped and the parameters must not
// move at all.
func TestPPONaNGuardSkipsPoisonedBatch(t *testing.T) {
	cfg := DefaultPPOConfig()
	cfg.MinibatchSize = 0 // whole buffer per minibatch
	p := guardPPO(t, cfg)
	before := snapshotParams(p.Actor.Params())
	beforeCritic := snapshotParams(p.Critic.Params())

	batch := guardBatch(12, 4, 2, 1)
	batch.Advantages[5] = math.NaN()
	st, err := p.Update(batch)
	if err != nil {
		t.Fatal(err)
	}
	if st.SkippedMinibatches != cfg.Epochs {
		t.Fatalf("skipped %d minibatches, want %d (one per epoch)", st.SkippedMinibatches, cfg.Epochs)
	}
	if !reflect.DeepEqual(snapshotParams(p.Actor.Params()), before) ||
		!reflect.DeepEqual(snapshotParams(p.Critic.Params()), beforeCritic) {
		t.Fatal("poisoned batch moved the parameters")
	}
	for _, v := range []float64{st.PolicyLoss, st.ValueLoss, st.ApproxKL, st.ClipFraction} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite statistic leaked through the guard: %+v", st)
		}
	}
}

// With smaller minibatches only the poisoned one is dropped; the rest of the
// data still trains, and every reported statistic stays finite.
func TestPPONaNGuardTrainsOnHealthyMinibatches(t *testing.T) {
	cfg := DefaultPPOConfig()
	cfg.MinibatchSize = 4
	cfg.TargetKL = 0 // keep all epochs so skips are predictable in count
	p := guardPPO(t, cfg)
	before := snapshotParams(p.Actor.Params())

	batch := guardBatch(12, 4, 2, 2)
	batch.Advantages[7] = math.NaN()
	st, err := p.Update(batch)
	if err != nil {
		t.Fatal(err)
	}
	// One of the three minibatches per epoch holds the poisoned sample.
	if st.SkippedMinibatches != cfg.Epochs {
		t.Fatalf("skipped %d minibatches, want %d", st.SkippedMinibatches, cfg.Epochs)
	}
	if reflect.DeepEqual(snapshotParams(p.Actor.Params()), before) {
		t.Fatal("healthy minibatches did not train")
	}
	if !paramsFinite(p.Actor.Params()) || !paramsFinite(p.Critic.Params()) {
		t.Fatal("parameters went non-finite")
	}
	for _, v := range []float64{st.PolicyLoss, st.ValueLoss, st.ApproxKL, st.ClipFraction, st.Entropy} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite statistic: %+v", st)
		}
	}
}

// If an optimizer step itself overflows the parameters, the divergence guard
// must roll the whole update back to the weights it started from.
func TestPPODivergenceRestoresLastGoodWeights(t *testing.T) {
	cfg := DefaultPPOConfig()
	cfg.Epochs = 1
	cfg.MinibatchSize = 0
	cfg.CriticLR = math.Inf(1) // an overflowing step drives weights to ±Inf/NaN
	p := guardPPO(t, cfg)
	actorBefore := snapshotParams(p.Actor.Params())
	criticBefore := snapshotParams(p.Critic.Params())

	st, err := p.Update(guardBatch(8, 4, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Restored {
		t.Fatalf("divergence not detected: %+v", st)
	}
	if !reflect.DeepEqual(snapshotParams(p.Actor.Params()), actorBefore) ||
		!reflect.DeepEqual(snapshotParams(p.Critic.Params()), criticBefore) {
		t.Fatal("rollback did not restore the starting weights")
	}
	if !paramsFinite(p.Critic.Params()) {
		t.Fatal("critic still non-finite after rollback")
	}
	// A follow-up update with sane data must work on the restored weights.
	p.Cfg.CriticLR = 1e-3
	p.criticOpt = nn.NewAdam(1e-3)
	if _, err := p.Update(guardBatch(8, 4, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if !paramsFinite(p.Critic.Params()) {
		t.Fatal("training after rollback corrupted the critic")
	}
}

// The A2C guard must skip its single step on a poisoned batch.
func TestA2CNaNGuardSkipsUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	actor := NewGaussianPolicy(4, 2, []int{6}, 0.3, rng)
	critic := nn.NewMLP([]int{4, 6, 1}, nn.Tanh, nn.Identity, rng)
	a, err := NewA2C(DefaultA2CConfig(), actor, critic)
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotParams(actor.Params())
	batch := guardBatch(8, 4, 2, 5)
	batch.Returns[2] = math.NaN()
	st, err := a.Update(batch)
	if err != nil {
		t.Fatal(err)
	}
	if st.SkippedMinibatches != 1 {
		t.Fatalf("poisoned A2C batch not skipped: %+v", st)
	}
	if !reflect.DeepEqual(snapshotParams(actor.Params()), before) {
		t.Fatal("poisoned A2C batch moved the parameters")
	}
	if math.IsNaN(st.PolicyLoss) || math.IsNaN(st.ValueLoss) {
		t.Fatal("NaN leaked into A2C stats")
	}
}
