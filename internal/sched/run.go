package sched

import (
	"fmt"

	"repro/internal/fl"
)

// Observer is implemented by schedulers that want to see each iteration's
// outcome (beyond the LastBW snapshot the Context already carries) — the
// guard's cost-regression breaker closes its loop through this. Run and
// RunOpts honor it after every step.
type Observer interface {
	Observe(fl.IterationStats)
}

// Run drives a scheduler through `iters` synchronous FL iterations starting
// at the given wall-clock time and returns the per-iteration statistics —
// the online-reasoning loop behind Figures 7 and 8. It is the fault-free
// special case of RunOpts.
func Run(sys *fl.System, s Scheduler, startTime float64, iters int) ([]fl.IterationStats, error) {
	return RunOpts(sys, s, startTime, iters, fl.IterOptions{})
}

// RunOpts drives a scheduler under fault-tolerance options: the session
// applies the deadline/retry/fault semantics of fl.RunIterationOptsInto and
// each scheduler sees the crashed-device mask in its Context. With the zero
// options it is bit-identical to Run.
func RunOpts(sys *fl.System, s Scheduler, startTime float64, iters int, opts fl.IterOptions) ([]fl.IterationStats, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("sched: iteration count %d must be positive", iters)
	}
	ses, err := fl.NewSession(sys, startTime)
	if err != nil {
		return nil, err
	}
	ses.Opts = opts
	out := make([]fl.IterationStats, 0, iters)
	for k := 0; k < iters; k++ {
		ctx := Context{
			Sys:    sys,
			Clock:  ses.Clock,
			Iter:   k,
			LastBW: ses.LastBandwidths(),
		}
		if opts.Faults != nil {
			ctx.Down = opts.Faults.Down(k)
		}
		freqs, err := s.Frequencies(ctx)
		if err != nil {
			return nil, fmt.Errorf("sched: %s at iteration %d: %w", s.Name(), k, err)
		}
		it, err := ses.Step(freqs)
		if err != nil {
			return nil, fmt.Errorf("sched: %s produced infeasible frequencies at iteration %d: %w", s.Name(), k, err)
		}
		if ob, ok := s.(Observer); ok {
			ob.Observe(it)
		}
		out = append(out, it)
	}
	return out, nil
}

// Survivors extracts the per-iteration survivor counts from run output.
func Survivors(its []fl.IterationStats) []int {
	out := make([]int, len(its))
	for i, it := range its {
		out[i] = it.Survivors
	}
	return out
}

// Costs extracts the per-iteration system cost series from run output.
func Costs(its []fl.IterationStats) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = it.Cost
	}
	return out
}

// Durations extracts the per-iteration training time series T^k.
func Durations(its []fl.IterationStats) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = it.Duration
	}
	return out
}

// ComputeEnergies extracts the per-iteration computational-energy series,
// the metric of Fig. 7(c)/(f).
func ComputeEnergies(its []fl.IterationStats) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = it.ComputeEnergy
	}
	return out
}
