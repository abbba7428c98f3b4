package sched

import (
	"fmt"

	"repro/internal/env"
	"repro/internal/rl"
	"repro/internal/tensor"
)

// CohortDRL serves region-level frequency fractions for the hierarchical
// engine: the policy maps the region-level bandwidth state (R·(H+1) values)
// to one raw action per region, and env.MapFracsInto squashes it onto
// [MinFrac, 1]. It implements hier.FracPolicy. Like DRL, it embeds an
// actorBackend, so it can serve on the float32 fleet-batched backend — one
// cache-blocked inference pass prices every region of a million-device
// fleet — with a sticky-error fallback to float64.
type CohortDRL struct {
	actorBackend
	// MinFrac is the fraction floor in (0,1).
	MinFrac float64
}

// NewCohortDRL validates the pairing.
func NewCohortDRL(policy rl.Policy, minFrac float64) (*CohortDRL, error) {
	if policy == nil {
		return nil, fmt.Errorf("sched: nil policy")
	}
	if minFrac <= 0 || minFrac >= 1 {
		return nil, fmt.Errorf("sched: min frequency fraction %v outside (0,1)", minFrac)
	}
	c := &CohortDRL{MinFrac: minFrac}
	c.Policy = policy
	return c, nil
}

// Name implements hier.FracPolicy.
func (c *CohortDRL) Name() string { return "cohort-drl" }

// FracsInto implements hier.FracPolicy: one inference pass over the
// region-level state fills dst (length ActionDim) with fractions in
// [MinFrac, 1]. Steady-state calls allocate nothing on the batched
// backends.
func (c *CohortDRL) FracsInto(dst []float64, state []float64) error {
	s := tensor.Vector(state)
	if len(s) != c.Policy.StateDim() {
		return fmt.Errorf("sched: state dim %d but policy expects %d (trained on a different region count or H?)",
			len(s), c.Policy.StateDim())
	}
	if len(dst) != c.Policy.ActionDim() {
		return fmt.Errorf("sched: %d fraction slots but policy acts on %d regions", len(dst), c.Policy.ActionDim())
	}
	mu, err := c.mean(s)
	if err != nil {
		return err
	}
	_, err = env.MapFracsInto(dst, mu, c.MinFrac)
	return err
}
