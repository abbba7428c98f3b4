package rl

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// The paper (§IV-C) surveys policy-optimization alternatives — DPG, A2C,
// TRPO — and selects PPO for its balance of sample complexity and tuning
// ease. This file implements the A2C alternative (advantage actor-critic,
// one on-policy gradient step per batch, no ratio clipping) so that choice
// can be examined empirically: see experiments.AblationOptimizer.

// A2CConfig holds the advantage-actor-critic hyperparameters.
type A2CConfig struct {
	// Gamma is the discount factor γ.
	Gamma float64
	// Lambda is the GAE smoothing λ.
	Lambda float64
	// ActorLR and CriticLR are the Adam learning rates.
	ActorLR, CriticLR float64
	// EntropyCoef weights the exploration bonus.
	EntropyCoef float64
	// ValueCoef weights the critic loss in the reported training loss.
	ValueCoef float64
	// MaxGradNorm clips the global gradient norm (≤ 0 disables).
	MaxGradNorm float64
	// Workers caps the goroutines of the data-parallel update engine (same
	// bit-identical contract as PPOConfig.Workers). 0 or 1 runs
	// single-threaded.
	Workers int
}

// DefaultA2CConfig mirrors the PPO defaults where they overlap.
func DefaultA2CConfig() A2CConfig {
	return A2CConfig{
		Gamma:       0.95,
		Lambda:      0.95,
		ActorLR:     3e-4,
		CriticLR:    1e-3,
		EntropyCoef: 1e-3,
		ValueCoef:   0.5,
		MaxGradNorm: 0.5,
	}
}

// Validate checks the configuration.
func (c A2CConfig) Validate() error {
	switch {
	case c.Gamma < 0 || c.Gamma > 1:
		return fmt.Errorf("rl: γ = %v outside [0,1]", c.Gamma)
	case c.Lambda < 0 || c.Lambda > 1:
		return fmt.Errorf("rl: GAE λ = %v outside [0,1]", c.Lambda)
	case c.ActorLR <= 0 || c.CriticLR <= 0:
		return fmt.Errorf("rl: learning rates must be positive")
	case c.EntropyCoef < 0 || c.ValueCoef < 0:
		return fmt.Errorf("rl: negative loss coefficients")
	case c.Workers < 0:
		return fmt.Errorf("rl: workers %d must not be negative", c.Workers)
	}
	return nil
}

// A2C couples a policy and critic under the vanilla advantage
// policy-gradient update.
type A2C struct {
	Cfg    A2CConfig
	Actor  Policy
	Critic *nn.MLP

	actorOpt  *nn.Adam
	criticOpt *nn.Adam

	// Data-parallel engine state, created on the first Update and reused
	// across updates so the steady-state path allocates nothing (pinned by
	// TestA2CUpdateSteadyStateAllocs).
	engine  *shardEngine
	arena   *tensor.Arena
	scratch ppoScratch
}

// NewA2C wires the actor and critic to fresh Adam optimizers. Like NewPPO it
// requires a *GaussianPolicy actor.
func NewA2C(cfg A2CConfig, actor Policy, critic *nn.MLP) (*A2C, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkActorCritic(actor, critic); err != nil {
		return nil, err
	}
	return &A2C{
		Cfg:       cfg,
		Actor:     actor,
		Critic:    critic,
		actorOpt:  nn.NewAdam(cfg.ActorLR),
		criticOpt: nn.NewAdam(cfg.CriticLR),
	}, nil
}

// Value returns the critic's estimate V(s).
func (a *A2C) Value(s tensor.Vector) float64 {
	return a.Critic.Forward(s)[0]
}

// Update applies one policy-gradient step over the whole batch:
//
//	∇J = E[ A·∇log π(a|s) ] + c_e·∇H − c_v·∇MSE(V, returns)
//
// Because A2C takes a single step per batch it must sample fresh data every
// update — the sample-inefficiency PPO's clipped re-use fixes. It runs on the
// same deterministic data-parallel engine as PPO (bit-identical at any
// Cfg.Workers, zero steady-state allocations).
func (a *A2C) Update(batch *Batch) (UpdateStats, error) {
	n := batch.Len()
	if n == 0 {
		return UpdateStats{}, fmt.Errorf("rl: empty batch")
	}
	if a.engine == nil {
		a.engine = newShardEngine(a.Actor.(*GaussianPolicy), a.Critic, a.Cfg.Workers)
		a.arena = tensor.NewArena()
	}
	actorParams, criticParams := a.engine.actorParams, a.engine.criticParams
	var stats UpdateStats
	size := float64(n)
	a.arena.Reset()
	sc := &a.scratch
	sc.carve(a.arena, n, a.Actor.StateDim(), a.Actor.ActionDim())
	for k := 0; k < n; k++ {
		copy(sc.S.Row(k), batch.States[k])
		copy(sc.A.Row(k), batch.Actions[k])
	}
	V := a.engine.forward(sc.S, sc.A, sc.logp, true)
	for k := 0; k < n; k++ {
		adv := batch.Advantages[k]
		// Ascend A·log π ⇒ descend −A·log π.
		sc.upstream[k] = -adv / size
		stats.PolicyLoss += -adv * sc.logp[k]
		verr := V[k] - batch.Returns[k]
		stats.ValueLoss += verr * verr
		sc.dV.Data[k] = 2 * verr / size
	}
	a.engine.backward(sc.upstream, sc.dV, nil, true)
	a.Actor.AddEntropyGrad(-a.Cfg.EntropyCoef)
	actorNorm := nn.GradNorm(actorParams)
	criticNorm := nn.GradNorm(criticParams)
	// NaN guard (same contract as PPO): a poisoned batch must not corrupt
	// the parameters — skip the step and report it.
	if !finite(stats.PolicyLoss) || !finite(stats.ValueLoss) ||
		!finite(actorNorm) || !finite(criticNorm) {
		stats.SkippedMinibatches = 1
		stats.PolicyLoss, stats.ValueLoss = 0, 0
		stats.Entropy = a.Actor.Entropy()
		stats.EpochsRun = 1
		return stats, nil
	}
	a.actorOpt.StepScaled(actorParams, nn.ClipScale(actorNorm, a.Cfg.MaxGradNorm))
	a.criticOpt.StepScaled(criticParams, nn.ClipScale(criticNorm, a.Cfg.MaxGradNorm))

	stats.PolicyLoss /= size
	stats.ValueLoss /= size
	stats.Entropy = a.Actor.Entropy()
	stats.EpochsRun = 1
	return stats, nil
}

// Trainable abstracts PPO and A2C so training loops can swap optimizers —
// the interface behind experiments.AblationOptimizer.
type Trainable interface {
	// Value returns the critic's V(s).
	Value(s tensor.Vector) float64
	// Update consumes one batch of on-policy experience.
	Update(batch *Batch) (UpdateStats, error)
}

var (
	_ Trainable = (*PPO)(nil)
	_ Trainable = (*A2C)(nil)
)
