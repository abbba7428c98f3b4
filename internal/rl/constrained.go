package rl

import (
	"fmt"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file implements the Lagrangian constrained-PPO variant (ROADMAP item
// 4, after the safe-DRL FL formulation of arXiv 2308.10664): alongside the
// reward the environment emits per-constraint cost signals (deadline
// overshoot, energy-budget overrun), a cost critic regresses their
// discounted returns, and the surrogate ascends the penalized advantage
//
//	Â_eff = (Â_r − Σ_j λ_j·Â_cj) / (1 + Σ_j λ_j)
//
// while the multipliers follow projected dual ascent on the batch-mean cost:
//
//	λ_j ← clamp(λ_j + η·(Ĵ_cj − d_j), 0, λ_max).
//
// The cost critic's forward/backward waves are fused into the existing
// gradient-shard engine (same fixed 16-row blocks, same worker-independent
// merge tree), so the constrained update keeps both invariants of the plain
// one: bit-identical results at any Workers setting and a zero-allocation
// steady state. Multiplier state is serializable (ConstrainedState) so
// crash-safe resume stays bit-identical too.

// ConstraintConfig parameterizes the Lagrangian constrained-PPO variant.
// The zero value means unconstrained (plain PPO).
type ConstraintConfig struct {
	// Enabled switches the Lagrangian machinery on.
	Enabled bool
	// CostLimit is d_j: the per-constraint limit the batch-mean episodic
	// cost is driven under. Since the env's cost signals are normalized
	// overshoots, 0 demands no violation at all.
	CostLimit CostVec
	// LagrangeLR is η, the projected-ascent step size of the multipliers.
	LagrangeLR float64
	// MultiplierMax caps each λ_j, bounding how hard a persistently
	// violated constraint can squash the reward signal.
	MultiplierMax float64
	// CostCriticLR is the Adam learning rate of the cost critic.
	CostCriticLR float64
	// Init seeds the multipliers (clamped into [0, MultiplierMax]).
	Init CostVec
}

// DefaultConstraintConfig returns multiplier dynamics that converge on the
// paper's testbed scenario without drowning the reward signal.
func DefaultConstraintConfig() ConstraintConfig {
	return ConstraintConfig{
		Enabled:       true,
		LagrangeLR:    0.05,
		MultiplierMax: 10,
		CostCriticLR:  1e-3,
	}
}

// Validate checks the constraint configuration (only when Enabled).
func (c ConstraintConfig) Validate() error {
	if !c.Enabled {
		return nil
	}
	switch {
	case c.LagrangeLR <= 0:
		return fmt.Errorf("rl: Lagrange step size %v must be positive", c.LagrangeLR)
	case c.MultiplierMax <= 0:
		return fmt.Errorf("rl: multiplier cap %v must be positive", c.MultiplierMax)
	case c.CostCriticLR <= 0:
		return fmt.Errorf("rl: cost critic learning rate %v must be positive", c.CostCriticLR)
	}
	for j := 0; j < NumConstraints; j++ {
		if c.CostLimit[j] < 0 || !finite(c.CostLimit[j]) {
			return fmt.Errorf("rl: cost limit d_%d = %v invalid", j, c.CostLimit[j])
		}
		if c.Init[j] < 0 || c.Init[j] > c.MultiplierMax {
			return fmt.Errorf("rl: initial multiplier λ_%d = %v outside [0, %v]", j, c.Init[j], c.MultiplierMax)
		}
	}
	return nil
}

// NewConstrainedPPO wires a Lagrangian PPO: like NewPPO (including its
// *GaussianPolicy requirement) plus a cost critic with one output per
// constraint and the multiplier state.
func NewConstrainedPPO(cfg PPOConfig, actor Policy, critic, costCritic *nn.MLP, rng *rand.Rand) (*PPO, error) {
	if !cfg.Constraint.Enabled {
		return nil, fmt.Errorf("rl: NewConstrainedPPO with Constraint.Enabled=false")
	}
	if costCritic.OutDim() != NumConstraints {
		return nil, fmt.Errorf("rl: cost critic must output %d values, has %d", NumConstraints, costCritic.OutDim())
	}
	if costCritic.InDim() != actor.StateDim() {
		return nil, fmt.Errorf("rl: actor/cost-critic state dims differ: %d vs %d", actor.StateDim(), costCritic.InDim())
	}
	p, err := NewPPO(cfg, actor, critic, rng)
	if err != nil {
		return nil, err
	}
	p.CostCritic = costCritic
	p.costOpt = nn.NewAdam(cfg.Constraint.CostCriticLR)
	p.lambda = cfg.Constraint.Init
	return p, nil
}

// Constrained reports whether this PPO runs the Lagrangian update.
func (p *PPO) Constrained() bool { return p.CostCritic != nil }

// Multipliers returns the current Lagrange multipliers (zero vector when
// unconstrained).
func (p *PPO) Multipliers() CostVec { return p.lambda }

// CostValues returns the cost critic's per-constraint estimates K(s), used
// to bootstrap cost-GAE at buffer boundaries.
func (p *PPO) CostValues(s tensor.Vector) CostVec {
	var k CostVec
	if p.CostCritic == nil {
		return k
	}
	out := p.CostCritic.Forward(s)
	copy(k[:], out)
	return k
}

// ConstrainedState is the serializable snapshot of the Lagrangian extras:
// multipliers, cost critic weights, and cost optimizer moments. It rides in
// core.Checkpoint so constrained training resumes bit-identically.
type ConstrainedState struct {
	Multipliers []float64    `json:"multipliers"`
	CostCritic  nn.MLPState  `json:"cost_critic"`
	CostOpt     nn.AdamState `json:"cost_opt"`
}

// CaptureConstrained snapshots the Lagrangian state, or nil when this PPO
// is unconstrained (so plain checkpoints stay byte-identical to before).
func (p *PPO) CaptureConstrained() *ConstrainedState {
	if p.CostCritic == nil {
		return nil
	}
	return &ConstrainedState{
		Multipliers: append([]float64(nil), p.lambda[:]...),
		CostCritic:  p.CostCritic.State(),
		CostOpt:     p.costOpt.State(p.CostCritic.Params()),
	}
}

// RestoreConstrained copies a snapshot back in place, or returns an error
// and writes nothing. A nil snapshot is valid only for an unconstrained
// PPO, and vice versa — resuming a constrained run from an unconstrained
// checkpoint (or the reverse) is a configuration error, not a silent reset.
func (p *PPO) RestoreConstrained(st *ConstrainedState) error {
	if st == nil {
		if p.CostCritic != nil {
			return fmt.Errorf("rl: checkpoint has no constrained state, trainer is constrained")
		}
		return nil
	}
	if p.CostCritic == nil {
		return fmt.Errorf("rl: checkpoint has constrained state, trainer is unconstrained")
	}
	if len(st.Multipliers) != NumConstraints {
		return fmt.Errorf("rl: checkpoint has %d multipliers, want %d", len(st.Multipliers), NumConstraints)
	}
	for j, l := range st.Multipliers {
		if l < 0 || !finite(l) {
			return fmt.Errorf("rl: checkpoint multiplier λ_%d = %v invalid", j, l)
		}
	}
	// Check the moments on a scratch optimizer first, so that nothing is
	// written unless the whole snapshot fits.
	if err := nn.NewAdam(1).LoadState(p.CostCritic.Params(), st.CostOpt); err != nil {
		return err
	}
	if err := p.CostCritic.LoadState(st.CostCritic); err != nil {
		return err
	}
	if err := p.costOpt.LoadState(p.CostCritic.Params(), st.CostOpt); err != nil {
		return err
	}
	copy(p.lambda[:], st.Multipliers)
	return nil
}
