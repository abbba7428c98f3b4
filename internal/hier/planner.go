package hier

import (
	"fmt"
	"math"
)

// CohortPlanner prices a whole region with one decision: it fills dst with
// one frequency fraction per region (each in (0,1], scaling every cohort
// device's δ_i^max). This is the cohort-level analogue of sched.Scheduler —
// at N=1M per-device decisions are neither affordable nor useful, so the
// control surface is the region.
type CohortPlanner interface {
	// Name identifies the planner in reports.
	Name() string
	// PlanInto fills dst (length e.Regions()) with frequency fractions for
	// the upcoming global step. Implementations may read the engine's
	// fleet, topology, clock and step counter but must not mutate it.
	PlanInto(dst []float64, e *Engine) error
}

// FixedPlanner applies one constant fraction to every region.
type FixedPlanner struct {
	Frac float64
}

// Name implements CohortPlanner.
func (FixedPlanner) Name() string { return "fixed" }

// PlanInto implements CohortPlanner.
func (p FixedPlanner) PlanInto(dst []float64, e *Engine) error {
	if !(p.Frac > 0) || p.Frac > 1 {
		return fmt.Errorf("hier: fixed fraction %v outside (0,1]", p.Frac)
	}
	for r := range dst {
		dst[r] = p.Frac
	}
	return nil
}

// MaxFreqPlanner runs every device flat out — the energy-oblivious default
// the paper argues against, kept as the speed upper bound.
type MaxFreqPlanner struct{}

// Name implements CohortPlanner.
func (MaxFreqPlanner) Name() string { return "maxfreq" }

// PlanInto implements CohortPlanner.
func (MaxFreqPlanner) PlanInto(dst []float64, e *Engine) error {
	for r := range dst {
		dst[r] = 1
	}
	return nil
}

// HeuristicPlanner applies the barrier-unaware closed-form optimum of Tran
// et al. per region: each device's standalone cost w/δ + λ·α·w·δ² is
// minimized at δ* = (2λα)^{-1/3}, so the region's fraction is the mean of
// clamp(δ*_i, minFrac·δ_i^max, δ_i^max)/δ_i^max over its devices. λ and α
// are static, so the fractions are computed once at construction and the
// per-step plan is a copy — zero allocations on the round path.
type HeuristicPlanner struct {
	fracs []float64
}

// NewHeuristicPlanner precomputes the per-region fractions for the engine's
// fleet, topology and λ. minFrac floors the fraction in (0,1).
func NewHeuristicPlanner(e *Engine, minFrac float64) (*HeuristicPlanner, error) {
	if e == nil {
		return nil, fmt.Errorf("hier: nil engine")
	}
	if minFrac <= 0 || minFrac >= 1 {
		return nil, fmt.Errorf("hier: min frequency fraction %v outside (0,1)", minFrac)
	}
	R := e.Top.Regions()
	fracs := make([]float64, R)
	for r := 0; r < R; r++ {
		lo, hi := e.Top.Region(r)
		var sum float64
		for i := lo; i < hi; i++ {
			var f float64
			if e.Cfg.Lambda > 0 {
				f = math.Pow(2*e.Cfg.Lambda*e.Fleet.Alpha[i], -1.0/3.0)
			} else {
				f = e.Fleet.MaxFreqHz[i] // time-only objective: run flat out
			}
			frac := f / e.Fleet.MaxFreqHz[i]
			if frac < minFrac {
				frac = minFrac
			}
			if frac > 1 {
				frac = 1
			}
			sum += frac
		}
		fracs[r] = sum / float64(hi-lo)
	}
	return &HeuristicPlanner{fracs: fracs}, nil
}

// Name implements CohortPlanner.
func (*HeuristicPlanner) Name() string { return "heuristic" }

// PlanInto implements CohortPlanner.
func (h *HeuristicPlanner) PlanInto(dst []float64, e *Engine) error {
	if len(dst) != len(h.fracs) {
		return fmt.Errorf("hier: heuristic plan for %d regions applied to %d", len(h.fracs), len(dst))
	}
	copy(dst, h.fracs)
	return nil
}
