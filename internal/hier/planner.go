package hier

import "fmt"

// CohortPlanner prices a whole region with one decision: it fills dst with
// one frequency fraction per region (each in (0,1], scaling every cohort
// device's δ_i^max). This is the cohort-level analogue of sched.Scheduler —
// at N=1M per-device decisions are neither affordable nor useful, so the
// control surface is the region.
type CohortPlanner interface {
	// Name identifies the planner in reports.
	Name() string
	// PlanInto fills dst (length e.Top.Regions()) with frequency
	// fractions for the upcoming global step. Implementations may read the
	// engine's fleet, topology, clock and step counter but must not mutate
	// it.
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
