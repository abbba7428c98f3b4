package env

import (
	"math/rand"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/device"
	"repro/internal/fl"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// benchSystem builds an N-device fleet on generated walking-4G traces —
// the Fig. 8 simulation shape without importing the experiments package.
func benchSystem(n int) *fl.System {
	devs := device.MustNewFleet(n, device.FleetParams{}, 1)
	p := bandwidth.Walking4G()
	traces := make([]*trace.Trace, n)
	for i := range traces {
		traces[i] = p.MustGenerate("w", 3000, int64(i)*17+1)
	}
	return &fl.System{Devices: devs, Traces: traces, Tau: 1, ModelBytes: 25e6, Lambda: 1}
}

func benchEnv(b *testing.B, n int) *Env {
	b.Helper()
	e, err := New(benchSystem(n), DefaultConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkEnvStepInto measures one environment transition (frequency
// mapping, one synchronous FL iteration over the traces, next-state
// construction) at the paper's simulation scale N=50, H=5.
func BenchmarkEnvStepInto(b *testing.B) {
	e := benchEnv(b, 50)
	if _, err := e.ResetAtFaults(0, 0); err != nil {
		b.Fatal(err)
	}
	action := tensor.NewVector(e.ActionDim())
	for i := range action {
		action[i] = 0.3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.StepInto(action); err != nil {
			b.Fatal(err)
		}
		if i%e.Cfg.EpisodeLen == e.Cfg.EpisodeLen-1 {
			b.StopTimer()
			if _, err := e.ResetAtFaults(0, 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkEpisode measures one whole training episode (Reset + EpisodeLen
// steps) on the 3-device testbed shape — the rollout-collection unit cost.
func BenchmarkEpisode(b *testing.B) {
	e := benchEnv(b, 3)
	action := tensor.NewVector(e.ActionDim())
	for i := range action {
		action[i] = 0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Reset(); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < e.Cfg.EpisodeLen; k++ {
			if _, err := e.StepInto(action); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBuildStateInto measures one state s_k at the serving fleet's
// shape (N=1000, H=5), cycling through clocks slot by slot.
func BenchmarkBuildStateInto(b *testing.B) {
	sys := benchSystem(1000)
	cfg := DefaultConfig()
	dst, scratch := BuildStateInto(nil, nil, sys, 100, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, scratch = BuildStateInto(dst, scratch, sys, float64(60+10*(i%280)), cfg)
	}
}
