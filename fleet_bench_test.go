package repro

// Fleet-serving benchmarks: how fast can one actor price an entire fleet
// tick? Two float64 paths over the same paper-default shared actor
// (perDev=6 → 64 → 64 → 1, tanh):
//
//   - f64-perdev:  one MLP.Forward per device (Mean)
//   - f64-batched: one ForwardBatch over all device rows (MeanInto,
//     bit-identical to f64-perdev)
//
// Both report decisions/s (devices priced per second).

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rl"
	"repro/internal/tensor"
)

// fleetBenchPolicy builds the paper-default shared actor over n devices.
func fleetBenchPolicy(n int) (*rl.GaussianPolicy, tensor.Vector) {
	rng := rand.New(rand.NewSource(1))
	p := rl.NewSharedGaussianPolicy(n, 6, []int{64, 64}, 0.4, rng)
	s := tensor.NewVector(p.StateDim())
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return p, s
}

func reportFleet(b *testing.B, n int) {
	perDev := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(n)
	b.ReportMetric(perDev, "ns/device")
	b.ReportMetric(1e9/perDev, "decisions/s")
}

func BenchmarkFleetInference(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		p, s := fleetBenchPolicy(n)
		dst := tensor.NewVector(n)

		b.Run(benchName("f64-batched", n), func(b *testing.B) {
			p.MeanInto(dst, s) // warmup: grow the layer caches
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.MeanInto(dst, s)
			}
			reportFleet(b, n)
		})

		b.Run(benchName("f64-perdev", n), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Mean(s)
			}
			reportFleet(b, n)
		})
	}
}

func benchName(path string, n int) string {
	return fmt.Sprintf("%s/N=%d", path, n)
}
