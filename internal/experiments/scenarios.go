// Package experiments reproduces every figure of the paper's evaluation
// (§V): Fig. 2 (bandwidth-trace dynamics), Fig. 6 (offline DRL training
// convergence), Fig. 7 (3-device testbed comparison against the Heuristic
// [3] and Static [4] baselines), Fig. 8 (50-device simulation), plus the
// design-choice ablations called out in DESIGN.md. Each experiment returns
// typed rows/series and can render itself for terminal or CSV output.
package experiments

import (
	"fmt"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fl"
	"repro/internal/rl"
)

// Scenario fixes the workload of an experiment: the fleet, traces and task
// constants of §V-A.
type Scenario struct {
	// N is the number of mobile devices.
	N int
	// Lambda is the cost weight λ (1 on the testbed, 0.1 in the 50-device
	// simulation).
	Lambda float64
	// ModelMB is ξ in megabytes.
	ModelMB float64
	// Tau is τ, local training passes per iteration.
	Tau int
	// TraceSec is the generated trace length in seconds.
	TraceSec float64
	// Seed drives fleet and trace generation.
	Seed int64
}

// TestbedScenario is the paper's small-scale testbed: N = 3 devices on
// walking 4G traces, λ = 1 (DESIGN.md §5 calibration).
func TestbedScenario(seed int64) Scenario {
	return Scenario{N: 3, Lambda: 1, ModelMB: 25, Tau: 1, TraceSec: 4000, Seed: seed}
}

// SimulationScenario is the paper's scalability simulation: N devices
// (50 in Fig. 8) drawing traces from five distinct walking datasets, λ = 0.1.
func SimulationScenario(n int, seed int64) Scenario {
	return Scenario{N: n, Lambda: 0.1, ModelMB: 25, Tau: 1, TraceSec: 4000, Seed: seed}
}

// Build materializes the scenario into a simulator System. Devices draw
// their parameters from the §V-A distributions; device i replays a trace
// generated from walking profile i mod 5 ("each mobile device randomly
// select[s] one dataset").
func (sc Scenario) Build() (*fl.System, error) {
	if sc.N <= 0 {
		return nil, fmt.Errorf("experiments: scenario with %d devices", sc.N)
	}
	devs, err := device.NewFleet(sc.N, device.FleetParams{}, sc.Seed)
	if err != nil {
		return nil, err
	}
	traces, err := bandwidth.WalkingSet(sc.N, "%s-dev%02d", sc.TraceSec, sc.Seed)
	if err != nil {
		return nil, err
	}
	sys := &fl.System{
		Devices:    devs,
		Traces:     traces,
		Tau:        sc.Tau,
		ModelBytes: sc.ModelMB * 1e6,
		Lambda:     sc.Lambda,
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return sys, nil
}

// TrainOptions size an offline training run.
type TrainOptions struct {
	// Episodes of Algorithm 1 training.
	Episodes int
	// Hidden layer widths.
	Hidden []int
	// Arch is the actor architecture.
	Arch core.Arch
	// Seed for the trainer.
	Seed int64
	// Workers selects the trainer's rollout mode (see core.Config.Workers):
	// 0 keeps the sequential Algorithm 1 loop, w ≥ 1 collects episodes
	// with a w-goroutine rollout pool whose output is independent of w.
	Workers int
	// TrainWorkers caps the goroutines of the data-parallel gradient engine
	// inside each optimizer update (see core.Config.TrainWorkers); the
	// result is bit-identical at any setting.
	TrainWorkers int
	// Constrained switches PPO to the Lagrangian constrained update:
	// per-iteration deadline and energy-budget cost signals, with targets
	// calibrated from the same run-at-max probe as the reward scale.
	Constrained bool
	// CostLimit is d_j for both constraints in normalized-overshoot units
	// (0 demands zero average overshoot of the calibrated targets).
	CostLimit float64
	// TimeSlack scales the probe's mean round duration into the deadline
	// target (0 → DefaultTimeSlack; must stay > 1 — max frequency is the
	// fastest the fleet can go).
	TimeSlack float64
	// EnergyFrac scales the probe's mean per-iteration energy into the
	// budget (0 → DefaultEnergyFrac; < 1 demands savings).
	EnergyFrac float64
}

// Default constraint-calibration factors of constrained training: a 25%
// deadline slack over the run-at-max round time and an energy budget at
// 90% of run-at-max burn.
const (
	DefaultTimeSlack  = 1.25
	DefaultEnergyFrac = 0.9
)

// TestbedTrainOptions reproduce the Fig. 6/7 agent.
func TestbedTrainOptions() TrainOptions {
	return TrainOptions{Episodes: 600, Hidden: []int{64, 64}, Arch: core.ArchJoint, Seed: 1}
}

// SimulationTrainOptions reproduce the Fig. 8 agent: the weight-shared
// per-device actor that scales to 50 devices (DESIGN.md substitution note).
func SimulationTrainOptions() TrainOptions {
	return TrainOptions{Episodes: 400, Hidden: []int{32, 32}, Arch: core.ArchShared, Seed: 1}
}

// TrainConfig materializes the trainer configuration the options describe,
// including the run-at-max reward-scale calibration. It is deterministic in
// (sys, opts), so a resumed run rebuilding the config gets the exact one
// the checkpoint was written under.
func TrainConfig(sys *fl.System, opts TrainOptions) (core.Config, error) {
	cfg := core.DefaultConfig()
	cfg.Episodes = opts.Episodes
	if len(opts.Hidden) > 0 {
		cfg.Hidden = opts.Hidden
	}
	if opts.Arch != "" {
		cfg.Arch = opts.Arch
	}
	cfg.Seed = opts.Seed
	cfg.Workers = opts.Workers
	cfg.TrainWorkers = opts.TrainWorkers
	scale, err := core.CalibrateRewardScale(sys, 10)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Env.RewardScale = scale
	if opts.Constrained {
		slack := opts.TimeSlack
		if slack == 0 {
			slack = DefaultTimeSlack
		}
		frac := opts.EnergyFrac
		if frac == 0 {
			frac = DefaultEnergyFrac
		}
		if opts.CostLimit < 0 {
			return core.Config{}, fmt.Errorf("experiments: cost limit %v negative", opts.CostLimit)
		}
		deadline, energy, err := core.CalibrateConstraints(sys, 10, slack, frac)
		if err != nil {
			return core.Config{}, err
		}
		cfg.Env.DeadlineTarget = deadline
		cfg.Env.EnergyBudget = energy
		cc := rl.DefaultConstraintConfig()
		for j := range cc.CostLimit {
			cc.CostLimit[j] = opts.CostLimit
		}
		cfg.PPO.Constraint = cc
	}
	return cfg, nil
}

// TrainAgent runs Algorithm 1 on the system and returns the trained agent
// plus the per-episode statistics (the Fig. 6 curves). Reward scaling is
// auto-calibrated with a run-at-max probe so the same hyperparameters work
// at every fleet size.
func TrainAgent(sys *fl.System, opts TrainOptions) (*core.Agent, []core.EpisodeStats, error) {
	cfg, err := TrainConfig(sys, opts)
	if err != nil {
		return nil, nil, err
	}
	tr, err := core.NewTrainer(sys, cfg)
	if err != nil {
		return nil, nil, err
	}
	eps, err := tr.Run(nil)
	if err != nil {
		return nil, nil, err
	}
	return tr.Agent(), eps, nil
}
