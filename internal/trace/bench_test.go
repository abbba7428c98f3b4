package trace

import (
	"math/rand"
	"runtime"
	"testing"
)

// benchTrace builds a volatile 3000-sample trace (1 s interval, ~50 min of
// replay) with outage runs, shaped like the generated 4G traces the
// simulator replays: the worst case for the legacy segment walker and the
// representative case for the prefix-sum index.
func benchTrace(seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	samples := make([]float64, 3000)
	for i := 0; i < len(samples); {
		if rng.Float64() < 0.05 { // outage run
			for run := 1 + rng.Intn(5); run > 0 && i < len(samples); run-- {
				samples[i] = 0
				i++
			}
			continue
		}
		samples[i] = 5e5 + rng.Float64()*4.5e6
		i++
	}
	return MustNew("bench", 1, samples)
}

// BenchmarkTraceIntegrate measures the windowed integral (eq. 3) over a
// slot-sized window — the state-construction workhorse (H+1 calls per
// device per step).
func BenchmarkTraceIntegrate(b *testing.B) {
	tr := benchTrace(1)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := float64(i%2900) * 1.03
		sink += tr.Integrate(t0, t0+10)
	}
	_ = sink
}

// BenchmarkTraceIntegrateMultiCycle measures the integral over a window
// spanning several replay cycles.
func BenchmarkTraceIntegrateMultiCycle(b *testing.B) {
	tr := benchTrace(1)
	d := tr.Duration()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := float64(i%100) * 1.7
		sink += tr.Integrate(t0, t0+3.5*d)
	}
	_ = sink
}

// BenchmarkUploadFinish measures the upload-completion solver for a short
// upload (a fraction of one replay cycle) — the per-device cost of every
// synchronous FL iteration.
func BenchmarkUploadFinish(b *testing.B) {
	tr := benchTrace(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.UploadFinish(float64(i%2900)*1.03, 25e6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUploadFinishLateClock is BenchmarkUploadFinish with the starts
// spread over [10^6 s, 10^6 s + d): a clock a long simulation reaches,
// ~333 replay cycles into this 3000 s trace, where wrapping the start into
// its cycle is no longer nearly free.
func BenchmarkUploadFinishLateClock(b *testing.B) {
	tr := benchTrace(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.UploadFinish(1e6+float64(i%2900)*1.03, 25e6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUploadFinishManyCycles measures the solver when the upload spans
// hundreds of replay cycles — the regime where the legacy walker had to
// fall back to walking whole cycles segment by segment.
func BenchmarkUploadFinishManyCycles(b *testing.B) {
	tr := benchTrace(1)
	vol := tr.Integrate(0, tr.Duration()) * 300.25
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.UploadFinish(float64(i%2900)*1.03, vol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceSlot measures one slot average at the paper's h = 10 s.
func BenchmarkTraceSlot(b *testing.B) {
	tr := benchTrace(1)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += tr.Slot(i%600, 10)
	}
	_ = sink
}

// BenchmarkTraceHistory measures the H+1 slot-average state block of one
// device (h = 10 s, H = 5), the per-device share of BuildState.
func BenchmarkTraceHistory(b *testing.B) {
	tr := benchTrace(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.History(float64(i%2900)*1.03, 10, 5)
	}
}

// BenchmarkSlotTableFill builds the slot table of 1000 bench traces at
// h = 10 s (300 rows), as a fleet tenant's first state does; -cpu 1,2
// compares the serial fill with two blocks of columns.
func BenchmarkSlotTableFill(b *testing.B) {
	traces := make([]*Trace, 1000)
	for i := range traces {
		traces[i] = benchTrace(int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if newSlotTable(traces, 10, runtime.GOMAXPROCS(0)).rows != 300 {
			b.Fatal("no table")
		}
	}
}
