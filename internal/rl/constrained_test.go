package rl

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// buildConstrainedPPO mirrors buildEnginePPO with the Lagrangian extras: a
// cost critic sized for NumConstraints outputs and the default constraint
// config (CostLimit 0, so any positive batch cost drives the multipliers up).
func buildConstrainedPPO(t *testing.T, arch string, seed int64, workers int) (*PPO, Policy, *nn.MLP, *nn.MLP) {
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
	critic := nn.NewMLP([]int{actor.StateDim(), 16, 16, 1}, nn.Tanh, nn.Identity, rng)
	costCritic := nn.NewMLP([]int{actor.StateDim(), 16, 16, NumConstraints}, nn.Tanh, nn.Identity, rng)
	cfg := DefaultPPOConfig()
	cfg.Epochs = 3
	cfg.MinibatchSize = 24 // two blocks, plus a short trailing minibatch
	cfg.TargetKL = 0
	cfg.Workers = workers
	cfg.Constraint = DefaultConstraintConfig()
	p, err := NewConstrainedPPO(cfg, actor, critic, costCritic, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	return p, actor, critic, costCritic
}

// randomConstrainedBatchFor extends randomBatchFor with per-constraint cost
// samples shaped like the env's normalized overshoots (nonnegative, often
// zero) and cost-value bootstraps from the cost critic.
func randomConstrainedBatchFor(actor Policy, critic, costCritic *nn.MLP, n int, rng *rand.Rand) *Batch {
	buf := NewBuffer(n)
	for !buf.Full() {
		s := tensor.NewVector(actor.StateDim())
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		a, logp := actor.Sample(s, rng)
		var cost, costValue CostVec
		for j := range cost {
			if v := rng.NormFloat64(); v > 0 {
				cost[j] = v
			}
		}
		copy(costValue[:], costCritic.Forward(s))
		buf.Add(Transition{State: s, Action: a.Clone(), Reward: rng.NormFloat64(),
			LogProb: logp, Value: critic.Forward(s)[0],
			Cost: cost, CostValue: costValue, Done: rng.Intn(17) == 0})
	}
	return MakeConstrainedBatchInto(&Batch{}, buf, 0, CostVec{}, 0.95, 0.95)
}

// TestConstrainedPPOUpdateWorkerInvariance extends the engine's central
// determinism contract to the Lagrangian path: five constrained updates at
// Workers ∈ {0, 1, 2, 8} must agree to the last bit — statistics, actor,
// reward critic, cost critic, and the Lagrange multipliers.
func TestConstrainedPPOUpdateWorkerInvariance(t *testing.T) {
	for _, arch := range []string{"joint", "shared"} {
		t.Run(arch, func(t *testing.T) {
			base, baseActor, baseCritic, baseCost := buildConstrainedPPO(t, arch, 17, 0)
			batchRng := rand.New(rand.NewSource(23))
			batches := make([]*Batch, 5)
			for i := range batches {
				batches[i] = randomConstrainedBatchFor(baseActor, baseCritic, baseCost, 57, batchRng)
			}
			baseStats := make([]UpdateStats, len(batches))
			for i, b := range batches {
				st, err := base.Update(b)
				if err != nil {
					t.Fatal(err)
				}
				baseStats[i] = st
			}
			// The fixture must actually exercise the dual ascent: with
			// CostLimit 0 and positive costs, the multipliers leave zero.
			if base.Multipliers() == (CostVec{}) {
				t.Fatal("multipliers never moved — fixture costs do not bind")
			}
			for _, workers := range []int{1, 2, 8} {
				p, actor, critic, cost := buildConstrainedPPO(t, arch, 17, workers)
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
				if p.Multipliers() != base.Multipliers() {
					t.Fatalf("workers=%d multipliers diverge: %v vs %v",
						workers, p.Multipliers(), base.Multipliers())
				}
				compareParams(t, "actor", actor.Params(), baseActor.Params())
				compareParams(t, "critic", critic.Params(), baseCritic.Params())
				compareParams(t, "cost critic", cost.Params(), baseCost.Params())
			}
		})
	}
}

// TestConstrainedUpdateRequiresConstrainedBatch: feeding a plain batch (no
// cost-GAE rows) to a constrained PPO is a loud error, not a silent zero.
func TestConstrainedUpdateRequiresConstrainedBatch(t *testing.T) {
	p, actor, critic, _ := buildConstrainedPPO(t, "joint", 7, 0)
	plain := randomBatchFor(actor, critic, 57, rand.New(rand.NewSource(8)))
	if _, err := p.Update(plain); err == nil {
		t.Fatal("constrained update accepted an unconstrained batch")
	}
}

// TestNewConstrainedPPOValidation pins the constructor's shape checks.
func TestNewConstrainedPPOValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	actor := NewGaussianPolicy(12, 4, []int{16}, 0.4, rng)
	critic := nn.NewMLP([]int{12, 16, 1}, nn.Tanh, nn.Identity, rng)
	costCritic := nn.NewMLP([]int{12, 16, NumConstraints}, nn.Tanh, nn.Identity, rng)
	cfg := DefaultPPOConfig()
	cfg.Constraint = DefaultConstraintConfig()

	if _, err := NewConstrainedPPO(cfg, actor, critic, costCritic, rng); err != nil {
		t.Fatalf("valid constrained PPO rejected: %v", err)
	}
	off := cfg
	off.Constraint.Enabled = false
	if _, err := NewConstrainedPPO(off, actor, critic, costCritic, rng); err == nil {
		t.Error("Enabled=false accepted")
	}
	if _, err := NewConstrainedPPO(cfg, plainPolicy{actor}, critic, costCritic, rng); err == nil {
		t.Error("non-sharded actor accepted")
	}
	badOut := nn.NewMLP([]int{12, 16, NumConstraints + 1}, nn.Tanh, nn.Identity, rng)
	if _, err := NewConstrainedPPO(cfg, actor, critic, badOut, rng); err == nil {
		t.Error("wrong cost-critic output dim accepted")
	}
	badIn := nn.NewMLP([]int{11, 16, NumConstraints}, nn.Tanh, nn.Identity, rng)
	if _, err := NewConstrainedPPO(cfg, actor, critic, badIn, rng); err == nil {
		t.Error("wrong cost-critic input dim accepted")
	}
}

// TestMultiplierProjectedAscent pins the dual-ascent projection: λ climbs on
// violated constraints but never past MultiplierMax, and decays toward (but
// never below) zero when the batch cost sits under the limit.
func TestMultiplierProjectedAscent(t *testing.T) {
	build := func(mut func(*ConstraintConfig)) (*PPO, *Batch) {
		rng := rand.New(rand.NewSource(11))
		actor := NewGaussianPolicy(12, 4, []int{16}, 0.4, rng)
		critic := nn.NewMLP([]int{12, 16, 1}, nn.Tanh, nn.Identity, rng)
		costCritic := nn.NewMLP([]int{12, 16, NumConstraints}, nn.Tanh, nn.Identity, rng)
		cfg := DefaultPPOConfig()
		cfg.Epochs = 1
		cfg.TargetKL = 0
		cfg.Constraint = DefaultConstraintConfig()
		mut(&cfg.Constraint)
		p, err := NewConstrainedPPO(cfg, actor, critic, costCritic, rand.New(rand.NewSource(12)))
		if err != nil {
			t.Fatal(err)
		}
		return p, randomConstrainedBatchFor(actor, critic, costCritic, 48, rand.New(rand.NewSource(13)))
	}

	// Violated constraint + aggressive step: the cap must hold.
	capped, batch := build(func(c *ConstraintConfig) {
		c.LagrangeLR = 100
		c.MultiplierMax = 0.25
	})
	for i := 0; i < 3; i++ {
		if _, err := capped.Update(batch); err != nil {
			t.Fatal(err)
		}
	}
	for j, l := range capped.Multipliers() {
		if l != 0.25 {
			t.Fatalf("λ_%d = %v after saturating updates, want clamp at 0.25", j, l)
		}
	}

	// Satisfied constraint (huge limit) with a positive seed: λ decays and
	// the projection floors it at zero.
	floored, batch := build(func(c *ConstraintConfig) {
		c.LagrangeLR = 100
		for j := range c.CostLimit {
			c.CostLimit[j] = 1e6
			c.Init[j] = 1
		}
	})
	if _, err := floored.Update(batch); err != nil {
		t.Fatal(err)
	}
	for j, l := range floored.Multipliers() {
		if l != 0 {
			t.Fatalf("λ_%d = %v with satisfied constraint, want projection to 0", j, l)
		}
	}
}

// benchConstrainedPPOBatch builds the paper-scale constrained agent (18-dim
// state, 3 actions, 64×64 actor, matching cost critic) plus a 256-sample
// constrained batch, the shape of the root BenchmarkPPOUpdate.
func benchConstrainedPPOBatch(b *testing.B, workers int) (*PPO, *Batch) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	stateDim, actionDim := 18, 3
	actor := NewGaussianPolicy(stateDim, actionDim, []int{64, 64}, 0.4, rng)
	critic := nn.NewMLP([]int{stateDim, 64, 64, 1}, nn.Tanh, nn.Identity, rng)
	costCritic := nn.NewMLP([]int{stateDim, 64, 64, NumConstraints}, nn.Tanh, nn.Identity, rng)
	cfg := DefaultPPOConfig()
	cfg.TargetKL = 0
	cfg.Workers = workers
	cfg.Constraint = DefaultConstraintConfig()
	p, err := NewConstrainedPPO(cfg, actor, critic, costCritic, rng)
	if err != nil {
		b.Fatal(err)
	}
	buf := NewBuffer(256)
	for !buf.Full() {
		s := tensor.NewVector(stateDim)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		a, logp := actor.Sample(s, rng)
		var cost, costValue CostVec
		for j := range cost {
			if v := rng.NormFloat64(); v > 0 {
				cost[j] = v
			}
		}
		copy(costValue[:], costCritic.Forward(s))
		buf.Add(Transition{State: s, Action: a.Clone(), Reward: rng.NormFloat64(),
			LogProb: logp, Value: critic.Forward(s)[0],
			Cost: cost, CostValue: costValue, Done: rng.Intn(40) == 0})
	}
	return p, MakeConstrainedBatchInto(&Batch{}, buf, 0, CostVec{}, 0.99, 0.95)
}

// BenchmarkConstrainedPPOUpdate measures one Lagrangian update over the
// 256-sample paper-scale batch on the single-threaded engine. Compare against
// the root package's BenchmarkPPOUpdate for the constrained-path overhead
// (cost-critic forward/backward waves + multiplier step).
func BenchmarkConstrainedPPOUpdate(b *testing.B) {
	p, batch := benchConstrainedPPOBatch(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Update(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConstrainedPPOUpdateParallel is the same update with four engine
// workers — bit-identical results, only wall-clock moves.
func BenchmarkConstrainedPPOUpdateParallel(b *testing.B) {
	p, batch := benchConstrainedPPOBatch(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Update(batch); err != nil {
			b.Fatal(err)
		}
	}
}
