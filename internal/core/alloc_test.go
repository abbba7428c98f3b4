//go:build !race

package core

import (
	"fmt"
	"testing"

	"repro/internal/env"
	"repro/internal/sched"
)

// TestDRLTickZeroAllocs pins the steady-state allocation contract of the
// serving tick: after one warmup decision, DRL.FrequenciesFromStateInto
// prices a fleet without touching the heap. The cases cover the
// DefaultConfig joint actor (the one every fresh serving tenant gets) at
// 1000 devices and the weight-shared per-device actor, whose MeanInto runs
// one batched forward over the devices, at Fig. 8's 50 devices and at 1000.
// Guarded from -race builds because the race runtime instruments
// allocation and breaks AllocsPerRun counts.
func TestDRLTickZeroAllocs(t *testing.T) {
	for _, c := range []struct {
		arch Arch
		n    int
	}{{ArchJoint, 1000}, {ArchShared, 50}, {ArchShared, 1000}} {
		t.Run(fmt.Sprintf("%s-%d", c.arch, c.n), func(t *testing.T) {
			sys := testbedSystem(c.n, 3)
			cfg := DefaultConfig()
			if cfg.Arch != ArchJoint {
				t.Fatalf("DefaultConfig architecture %q, want the joint actor", cfg.Arch)
			}
			cfg.Arch = c.arch
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
			dst := make([]float64, c.n)
			tick := func() {
				if _, err := drl.FrequenciesFromStateInto(dst, ctx, state); err != nil {
					t.Fatal(err)
				}
			}
			tick() // warmup: sizes the DRL's action buffer and the forward caches
			if allocs := testing.AllocsPerRun(20, tick); allocs != 0 {
				t.Fatalf("steady-state %s-actor tick allocates %v times per run, want 0", c.arch, allocs)
			}
		})
	}
}
