package trace

import (
	"math"
	"math/rand"
	"testing"
)

// This file pins the indexed engine (index.go) to the legacy segment walker
// it replaced. The implementations below reproduce the pre-index
// At/Integrate/UploadFinish/Slot semantics by walking segments, kept only as
// test oracles: every query the simulator performs is checked against them
// within 1e-9 relative tolerance across random traces, windows spanning
// multiple replay cycles, and zero-bandwidth outages.

// legacyAt is the pre-index Trace.At.
func legacyAt(tr *Trace, t float64) float64 {
	if t < 0 {
		t = 0
	}
	d := tr.Duration()
	t = math.Mod(t, d)
	idx := int(t / tr.Interval)
	if idx >= len(tr.Samples) {
		idx = len(tr.Samples) - 1
	}
	return tr.Samples[idx]
}

// legacyIntegrate is the pre-index Trace.Integrate: walk segment by segment
// within a cycle, with whole cycles batched through the summed volume.
func legacyIntegrate(tr *Trace, t0, t1 float64) float64 {
	if t1 < t0 {
		t0, t1 = t1, t0
	}
	if t0 < 0 {
		t0 = 0
	}
	if t1 <= t0 {
		return 0
	}
	d := tr.Duration()
	var cycleVol float64
	for _, s := range tr.Samples {
		cycleVol += s * tr.Interval
	}
	var total float64
	// Whole replay cycles inside the window.
	if span := t1 - t0; span >= d {
		cycles := math.Floor(span / d)
		total += cycles * cycleVol
		t0 += cycles * d
	}
	// Walk the remaining partial window segment by segment.
	for t0 < t1 {
		u := math.Mod(t0, d)
		idx := int(u / tr.Interval)
		if idx >= len(tr.Samples) {
			idx = len(tr.Samples) - 1
		}
		segEnd := t0 + (float64(idx+1)*tr.Interval - u)
		if segEnd > t1 {
			segEnd = t1
		}
		if segEnd <= t0 {
			segEnd = math.Nextafter(t0, math.Inf(1))
		}
		total += tr.Samples[idx] * (segEnd - t0)
		t0 = segEnd
	}
	return total
}

// legacyUploadFinish is the pre-index Trace.UploadFinish: walk segments
// accumulating volume until `bytes` have moved, finishing only inside a
// segment with positive rate.
func legacyUploadFinish(tr *Trace, t0, bytes float64) (float64, bool) {
	if bytes <= 0 {
		return t0, true
	}
	if t0 < 0 {
		t0 = 0
	}
	d := tr.Duration()
	var cycleVol float64
	for _, s := range tr.Samples {
		cycleVol += s * tr.Interval
	}
	if cycleVol <= 0 {
		return 0, false
	}
	// Skip whole cycles first so the walk below stays bounded.
	if cycles := math.Floor(bytes / cycleVol); cycles > 0 {
		// Conservative: back off one cycle so the walk never overshoots.
		skip := cycles - 1
		if skip > 0 {
			bytes -= skip * cycleVol
			t0 += skip * d
		}
	}
	t := t0
	remaining := bytes
	for {
		u := math.Mod(t, d)
		idx := int(u / tr.Interval)
		if idx >= len(tr.Samples) {
			idx = len(tr.Samples) - 1
		}
		segEnd := t + (float64(idx+1)*tr.Interval - u)
		if segEnd <= t {
			segEnd = math.Nextafter(t, math.Inf(1))
		}
		rate := tr.Samples[idx]
		vol := rate * (segEnd - t)
		if rate > 0 && vol >= remaining {
			return t + remaining/rate, true
		}
		remaining -= vol
		t = segEnd
	}
}

// legacySlot is the pre-index Trace.Slot, defined via legacyIntegrate.
func legacySlot(tr *Trace, j int, h float64) float64 {
	d := tr.Duration()
	start := math.Mod(float64(j)*h, d)
	if start < 0 {
		start += d
	}
	if h <= 0 {
		panic("trace: non-positive slot width")
	}
	return legacyIntegrate(tr, start, start+h) / h
}

// relClose reports |a-b| ≤ tol·max(1, |a|, |b|).
func relClose(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// randomTrace draws a trace with volatile rates and explicit outage runs —
// including, occasionally, a leading outage (the firstPosTime edge).
func randomTrace(rng *rand.Rand, n int) *Trace {
	samples := make([]float64, n)
	for i := 0; i < n; {
		if rng.Float64() < 0.15 { // outage run
			for run := 1 + rng.Intn(4); run > 0 && i < n; run-- {
				samples[i] = 0
				i++
			}
			continue
		}
		samples[i] = rng.Float64() * 5e6
		i++
	}
	interval := []float64{0.25, 0.5, 1, 2}[rng.Intn(4)]
	return MustNew("diff", interval, samples)
}

func TestDifferentialIntegrate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		tr := randomTrace(rng, 2+rng.Intn(60))
		d := tr.Duration()
		for q := 0; q < 50; q++ {
			t0 := rng.Float64() * 3 * d
			// Mix short windows, cycle-boundary-straddling windows, and
			// windows spanning several replay cycles.
			span := []float64{rng.Float64() * tr.Interval, rng.Float64() * d, (1 + 4*rng.Float64()) * d}[q%3]
			got := tr.Integrate(t0, t0+span)
			want := legacyIntegrate(tr, t0, t0+span)
			if !relClose(got, want, 1e-9) {
				t.Fatalf("trial %d: Integrate(%v, %v) = %v, legacy %v (interval %v, n %d)",
					trial, t0, t0+span, got, want, tr.Interval, len(tr.Samples))
			}
		}
	}
}

func TestDifferentialAt(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		tr := randomTrace(rng, 2+rng.Intn(60))
		d := tr.Duration()
		for q := 0; q < 50; q++ {
			at := rng.Float64() * 3 * d
			if got, want := tr.At(at), legacyAt(tr, at); got != want {
				t.Fatalf("trial %d: At(%v) = %v, legacy %v", trial, at, got, want)
			}
		}
	}
}

func TestDifferentialUploadFinish(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		tr := randomTrace(rng, 2+rng.Intn(60))
		d := tr.Duration()
		vol := tr.Integrate(0, d)
		if vol <= 0 {
			if _, err := tr.UploadFinish(0, 1); err == nil {
				t.Fatalf("trial %d: all-outage trace must refuse uploads", trial)
			}
			continue
		}
		for q := 0; q < 30; q++ {
			t0 := rng.Float64() * 3 * d
			// Sub-cycle, cycle-scale, and many-cycle uploads.
			bytes := []float64{rng.Float64() * vol * 0.5, (0.5 + rng.Float64()) * vol, (1 + 30*rng.Float64()) * vol}[q%3]
			got, err := tr.UploadFinish(t0, bytes)
			if err != nil {
				t.Fatalf("trial %d: UploadFinish: %v", trial, err)
			}
			want, ok := legacyUploadFinish(tr, t0, bytes)
			if !ok {
				t.Fatalf("trial %d: legacy walker refused a finishable upload", trial)
			}
			// Compare relative to the elapsed time, not the absolute clock.
			if !relClose(got-t0, want-t0, 1e-9) && !relClose(got, want, 1e-9) {
				t.Fatalf("trial %d: UploadFinish(%v, %v) = %v, legacy %v", trial, t0, bytes, got, want)
			}
		}
	}
}

func TestDifferentialSlotAndHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 100; trial++ {
		tr := randomTrace(rng, 2+rng.Intn(60))
		d := tr.Duration()
		// Widths that divide the cycle exactly (period-reduced) and widths
		// that do not (direct path).
		widths := []float64{tr.Interval, d / 4, d, 1.37 * tr.Interval, d / 3.1}
		for _, h := range widths {
			for q := 0; q < 20; q++ {
				j := rng.Intn(200) - 100
				got, want := tr.Slot(j, h), legacySlot(tr, j, h)
				if !relClose(got, want, 1e-9) {
					t.Fatalf("trial %d: Slot(%d, %v) = %v, legacy %v", trial, j, h, got, want)
				}
			}
			at := rng.Float64() * 3 * d
			hist := tr.History(at, h, 5)
			j := int(math.Floor(at / h))
			for k, got := range hist {
				if want := legacySlot(tr, j-k, h); !relClose(got, want, 1e-9) {
					t.Fatalf("trial %d: History[%d] at t=%v h=%v: %v, legacy %v", trial, k, at, h, got, want)
				}
			}
		}
	}
}

// TestDifferentialLeadingOutage pins the firstPosTime edge: an upload whose
// volume is an exact multiple of the cycle volume on a trace that opens
// with an outage must finish at the first positive-rate instant of the next
// cycle, exactly as the legacy walker's skip-zero-segments behavior.
func TestDifferentialLeadingOutage(t *testing.T) {
	tr := MustNew("lead", 1, []float64{0, 0, 1e6, 0, 1e6})
	vol := tr.Integrate(0, tr.Duration())
	for _, cycles := range []float64{1, 2, 7} {
		got, err := tr.UploadFinish(0, cycles*vol)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := legacyUploadFinish(tr, 0, cycles*vol)
		if !ok {
			t.Fatal("legacy refused")
		}
		if !relClose(got, want, 1e-9) {
			t.Fatalf("UploadFinish(0, %v cycles) = %v, legacy %v", cycles, got, want)
		}
	}
}

// TestCloneDropsIndex verifies the copy-on-write contract: New builds the
// index, a clone starts without one, and mutating a clone's samples (the
// pattern the tests rely on) must never read the original's cached index,
// and vice versa.
func TestCloneDropsIndex(t *testing.T) {
	tr := MustNew("cow", 1, []float64{1e6, 2e6, 3e6})
	if tr.idx.Load() == nil {
		t.Fatal("New left the index to the first query")
	}
	if got := tr.Integrate(0, 3); !relClose(got, 6e6, 1e-12) {
		t.Fatalf("warmup integral %v", got)
	}
	cl := tr.Clone()
	if cl.idx.Load() != nil {
		t.Fatal("Clone shares the index")
	}
	for i := range cl.Samples {
		cl.Samples[i] = 10e6
	}
	if got := cl.Integrate(0, 3); !relClose(got, 30e6, 1e-12) {
		t.Fatalf("clone integral %v, want 30e6 (stale shared index?)", got)
	}
	if got := tr.Integrate(0, 3); !relClose(got, 6e6, 1e-12) {
		t.Fatalf("original integral %v changed after clone edit", got)
	}
}
