package rl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestA2CConfigValidate(t *testing.T) {
	if err := DefaultA2CConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	muts := map[string]func(*A2CConfig){
		"gamma":  func(c *A2CConfig) { c.Gamma = -0.1 },
		"lambda": func(c *A2CConfig) { c.Lambda = 1.1 },
		"lr":     func(c *A2CConfig) { c.ActorLR = 0 },
		"coef":   func(c *A2CConfig) { c.ValueCoef = -1 },
	}
	for name, mut := range muts {
		c := DefaultA2CConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestNewA2CArchitectureChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	actor := NewGaussianPolicy(3, 1, []int{4}, 0.5, rng)
	badOut := nn.NewMLP([]int{3, 4, 2}, nn.Tanh, nn.Identity, rng)
	if _, err := NewA2C(DefaultA2CConfig(), actor, badOut); err == nil {
		t.Fatal("2-output critic accepted")
	}
	badIn := nn.NewMLP([]int{5, 4, 1}, nn.Tanh, nn.Identity, rng)
	if _, err := NewA2C(DefaultA2CConfig(), actor, badIn); err == nil {
		t.Fatal("state-dim mismatch accepted")
	}
	bad := DefaultA2CConfig()
	bad.Gamma = 2
	good := nn.NewMLP([]int{3, 4, 1}, nn.Tanh, nn.Identity, rng)
	if _, err := NewA2C(bad, actor, good); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestA2CImprovesBandit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	actor := NewGaussianPolicy(1, 1, []int{16}, 0.4, rng)
	critic := nn.NewMLP([]int{1, 16, 1}, nn.Tanh, nn.Identity, rng)
	cfg := DefaultA2CConfig()
	cfg.ActorLR = 5e-3
	cfg.CriticLR = 1e-2
	agent, err := NewA2C(cfg, actor, critic)
	if err != nil {
		t.Fatal(err)
	}
	avgReward := func() float64 {
		var sum float64
		const n = 400
		for i := 0; i < n; i++ {
			s := tensor.Vector{rng.Float64()*2 - 1}
			a, _ := actor.Sample(s, rng)
			target := 0.5 * s[0]
			sum += -(a[0] - target) * (a[0] - target)
		}
		return sum / n
	}
	before := avgReward()
	for round := 0; round < 60; round++ {
		buf := NewBuffer(128)
		for !buf.Full() {
			s := tensor.Vector{rng.Float64()*2 - 1}
			a, logp := actor.Sample(s, rng)
			target := 0.5 * s[0]
			r := -(a[0] - target) * (a[0] - target)
			buf.Add(Transition{State: s.Clone(), Action: a.Clone(), Reward: r,
				LogProb: logp, Value: agent.Value(s), Done: true})
		}
		if _, err := agent.Update(MakeBatchInto(&Batch{}, buf, 0, cfg.Gamma, cfg.Lambda)); err != nil {
			t.Fatal(err)
		}
	}
	after := avgReward()
	if after <= before {
		t.Fatalf("A2C did not improve: %v → %v", before, after)
	}
}

func TestA2CUpdateStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	actor := NewGaussianPolicy(2, 1, []int{6}, 0.5, rng)
	critic := nn.NewMLP([]int{2, 6, 1}, nn.Tanh, nn.Identity, rng)
	agent, err := NewA2C(DefaultA2CConfig(), actor, critic)
	if err != nil {
		t.Fatal(err)
	}
	buf := NewBuffer(16)
	for !buf.Full() {
		s := tensor.Vector{rng.NormFloat64(), rng.NormFloat64()}
		a, logp := actor.Sample(s, rng)
		buf.Add(Transition{State: s.Clone(), Action: a.Clone(), Reward: rng.NormFloat64(),
			LogProb: logp, Value: agent.Value(s), Done: true})
	}
	st, err := agent.Update(MakeBatchInto(&Batch{}, buf, 0, 0.95, 0.95))
	if err != nil {
		t.Fatal(err)
	}
	if st.EpochsRun != 1 {
		t.Fatalf("A2C should run exactly one epoch, got %d", st.EpochsRun)
	}
	if math.IsNaN(st.PolicyLoss) || math.IsNaN(st.ValueLoss) || st.Entropy == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if _, err := agent.Update(&Batch{}); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestA2CCriticRegresses(t *testing.T) {
	// With a fixed batch whose returns are constant, repeated critic-only
	// pressure should shrink the value loss.
	rng := rand.New(rand.NewSource(9))
	actor := NewGaussianPolicy(1, 1, []int{4}, 0.5, rng)
	critic := nn.NewMLP([]int{1, 8, 1}, nn.Tanh, nn.Identity, rng)
	cfg := DefaultA2CConfig()
	cfg.ActorLR = 1e-9 // freeze the actor; watch the critic
	cfg.CriticLR = 5e-3
	agent, _ := NewA2C(cfg, actor, critic)
	batch := &Batch{}
	for i := 0; i < 32; i++ {
		s := tensor.Vector{rng.Float64()}
		a, logp := actor.Sample(s, rng)
		batch.States = append(batch.States, s)
		batch.Actions = append(batch.Actions, a.Clone())
		batch.OldLogProb = append(batch.OldLogProb, logp)
		batch.Advantages = append(batch.Advantages, 0)
		batch.Returns = append(batch.Returns, 2.5)
	}
	var first, last float64
	for k := 0; k < 200; k++ {
		st, err := agent.Update(batch)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			first = st.ValueLoss
		}
		last = st.ValueLoss
	}
	if last >= first {
		t.Fatalf("critic loss did not shrink: %v → %v", first, last)
	}
}

func TestTrainableInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	actor := NewGaussianPolicy(2, 1, []int{4}, 0.5, rng)
	critic := nn.NewMLP([]int{2, 4, 1}, nn.Tanh, nn.Identity, rng)
	a2c, err := NewA2C(DefaultA2CConfig(), actor, critic)
	if err != nil {
		t.Fatal(err)
	}
	var tr Trainable = a2c
	if v := tr.Value(tensor.Vector{0.1, 0.2}); math.IsNaN(v) {
		t.Fatal("NaN value")
	}
}
