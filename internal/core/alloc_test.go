//go:build !race

package core

import (
	"testing"

	"repro/internal/env"
	"repro/internal/sched"
)

// TestDRLJointTickZeroAllocs pins the steady-state allocation contract of
// the serving tick: after one warmup decision, the DefaultConfig joint
// actor (the one every fresh serving tenant gets) prices a 1000-device
// fleet through DRL.FrequenciesFromStateInto without touching the heap.
// Guarded from -race builds because the race runtime instruments
// allocation and breaks AllocsPerRun counts.
func TestDRLJointTickZeroAllocs(t *testing.T) {
	const n = 1000
	sys := testbedSystem(n, 3)
	cfg := DefaultConfig()
	if cfg.Arch != ArchJoint {
		t.Fatalf("DefaultConfig architecture %q, want the joint actor", cfg.Arch)
	}
	tr, err := NewTrainer(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drl, err := tr.Agent().Scheduler()
	if err != nil {
		t.Fatal(err)
	}
	ctx := sched.Context{Sys: sys, Clock: 600}
	state, _ := env.BuildStateInto(nil, nil, sys, ctx.Clock, drl.Cfg)
	dst := make([]float64, n)
	tick := func() {
		if _, err := drl.FrequenciesFromStateInto(dst, ctx, state); err != nil {
			t.Fatal(err)
		}
	}
	tick() // warmup: sizes the DRL's action buffer
	if allocs := testing.AllocsPerRun(20, tick); allocs != 0 {
		t.Fatalf("steady-state joint-actor tick allocates %v times per run, want 0", allocs)
	}
}
