//go:build !race

// Allocation-regression gates for the hierarchical round path (DESIGN.md
// §10). The race detector instruments allocations, so these gates only run
// in normal test mode — mirroring internal/trace/alloc_test.go.
package hier

import (
	"testing"
)

// benchEngine assembles a moderately sized engine for the alloc gates.
func allocEngine(t *testing.T, cohortFrac float64, minArrivals int) *Engine {
	t.Helper()
	fleet, err := NewFleet(400, FleetOptions{PoolSize: 16, TraceSec: 600}, 19)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	top, err := EvenTopology(400, 8)
	if err != nil {
		t.Fatalf("EvenTopology: %v", err)
	}
	eng, err := NewEngine(fleet, top, Config{
		Tau: 1, ModelBytes: 3e5, Lambda: 1e-3,
		CohortFrac: cohortFrac, MinArrivals: minArrivals, Seed: 23,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng
}

// TestStepIntoAllocFree pins the serial steady-state round path at zero
// heap allocations, for both the synchronous full-cohort protocol and the
// subsampled semi-async one.
func TestStepIntoAllocFree(t *testing.T) {
	cases := []struct {
		name        string
		cohortFrac  float64
		minArrivals int
	}{
		{"sync-full", 1, 0},
		{"semi-cohort", 0.25, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := allocEngine(t, tc.cohortFrac, tc.minArrivals)
			// Convert to the interface once: boxing a value planner per call
			// would charge the gate an allocation the engine doesn't make.
			var planner CohortPlanner = FixedPlanner{Frac: 0.6}
			// Warm the lazy trace indices and heap capacity.
			for k := 0; k < 5; k++ {
				if _, err := eng.StepInto(planner); err != nil {
					t.Fatalf("warmup step %d: %v", k, err)
				}
			}
			avg := testing.AllocsPerRun(50, func() {
				if _, err := eng.StepInto(planner); err != nil {
					t.Fatalf("StepInto: %v", err)
				}
			})
			if avg != 0 {
				t.Fatalf("StepInto allocates %v objects per step in steady state, want 0", avg)
			}
		})
	}
}
