//go:build !race

package env

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestAllocsStepInto pins the zero-allocation contract of the environment's
// hot path (DESIGN.md §10): after the first step warms the trace indexes
// and scratch buffers, a steady-state StepInto — action mapping, one full
// synchronous FL iteration over 50 devices, next-state construction — must
// not allocate. Guarded from -race builds, whose instrumentation allocates.
func TestAllocsStepInto(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EpisodeLen = 1 << 20 // never hit the episode boundary in this test
	e, err := New(benchSystem(50), cfg, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ResetAtFaults(0, 0); err != nil {
		t.Fatal(err)
	}
	action := tensor.NewVector(e.ActionDim())
	for i := range action {
		action[i] = 0.25
	}
	// Warm indexes, the slot table, and all scratch buffers.
	for k := 0; k < 3; k++ {
		if _, err := e.StepInto(action); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := e.StepInto(action); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("StepInto allocates %v per run in steady state", n)
	}
}
