package core

import (
	"fmt"

	"repro/internal/fl"
	"repro/internal/sched"
	"repro/internal/stats"
)

// EvalResult summarizes one scheduler's online run — the rows of Fig. 7/8.
type EvalResult struct {
	// Name is the scheduler's name.
	Name string
	// Iterations holds the full per-iteration breakdowns.
	Iterations []fl.IterationStats
	// MeanCost is the average per-iteration system cost (Fig. 7(a), 8).
	MeanCost float64
	// MeanTime is the average per-iteration training time (Fig. 7(b)).
	MeanTime float64
	// MeanEnergy is the average per-iteration computational energy
	// (Fig. 7(c)).
	MeanEnergy float64
	// CostCDF, TimeCDF and EnergyCDF back Fig. 7(d)–(f).
	CostCDF, TimeCDF, EnergyCDF *stats.CDF
}

// Evaluate runs every scheduler through the same system for the same number
// of iterations from the same start time, so the comparison is paired.
func Evaluate(sys *fl.System, schedulers []sched.Scheduler, startTime float64, iters int) ([]EvalResult, error) {
	if len(schedulers) == 0 {
		return nil, fmt.Errorf("core: no schedulers to evaluate")
	}
	out := make([]EvalResult, 0, len(schedulers))
	for _, s := range schedulers {
		its, err := sched.Run(sys, s, startTime, iters)
		if err != nil {
			return nil, fmt.Errorf("core: evaluate %s: %w", s.Name(), err)
		}
		costs := sched.Costs(its)
		times := sched.Durations(its)
		energies := sched.ComputeEnergies(its)
		out = append(out, EvalResult{
			Name:       s.Name(),
			Iterations: its,
			MeanCost:   stats.Mean(costs),
			MeanTime:   stats.Mean(times),
			MeanEnergy: stats.Mean(energies),
			CostCDF:    stats.NewCDF(costs),
			TimeCDF:    stats.NewCDF(times),
			EnergyCDF:  stats.NewCDF(energies),
		})
	}
	return out, nil
}

// CalibrateRewardScale probes the system with a short run-at-max burst and
// returns its mean per-iteration cost, a natural RewardScale: scaled rewards
// then land near −1, which keeps the critic's regression targets O(1)
// regardless of fleet size N or cost weight λ.
func CalibrateRewardScale(sys *fl.System, iters int) (float64, error) {
	its, err := sched.Run(sys, sched.MaxFreq{}, 0, iters)
	if err != nil {
		return 0, fmt.Errorf("core: calibrate reward scale: %w", err)
	}
	m := stats.Mean(sched.Costs(its))
	if m <= 0 {
		return 0, fmt.Errorf("core: degenerate probe cost %v", m)
	}
	return m, nil
}

// CalibrateConstraints probes the system with a short run-at-max burst and
// derives per-iteration constraint targets for constrained training: the
// deadline target is the probe's mean round duration times timeSlack (>1
// leaves headroom — max frequency is the fastest the fleet can go), and the
// energy budget is the probe's mean per-iteration energy times energyFrac
// (<1 demands savings — max frequency is the most energy the fleet can
// burn). The pair plugs into env.Config.DeadlineTarget/EnergyBudget.
func CalibrateConstraints(sys *fl.System, iters int, timeSlack, energyFrac float64) (deadline, energy float64, err error) {
	if timeSlack <= 0 || energyFrac <= 0 {
		return 0, 0, fmt.Errorf("core: calibrate constraints: slack %v / fraction %v must be positive", timeSlack, energyFrac)
	}
	its, err := sched.Run(sys, sched.MaxFreq{}, 0, iters)
	if err != nil {
		return 0, 0, fmt.Errorf("core: calibrate constraints: %w", err)
	}
	meanTime := stats.Mean(sched.Durations(its))
	var meanEnergy float64
	for _, it := range its {
		meanEnergy += it.TotalEnergy()
	}
	meanEnergy /= float64(len(its))
	if meanTime <= 0 || meanEnergy <= 0 {
		return 0, 0, fmt.Errorf("core: degenerate probe: mean time %v, mean energy %v", meanTime, meanEnergy)
	}
	return meanTime * timeSlack, meanEnergy * energyFrac, nil
}
