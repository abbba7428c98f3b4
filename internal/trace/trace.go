// Package trace models time-varying uplink bandwidth as piecewise-constant
// functions of time, the substrate behind the paper's eq. (3): the effective
// transmission speed of an upload is the time-average of the trace over the
// actual upload window, so finishing an upload means integrating the trace
// until the model's ξ bits have moved.
//
// A Trace is a sequence of samples at a fixed interval; bandwidth is in
// bytes/second and held constant within each interval. Traces are replayed
// cyclically, matching the paper's methodology of training/evaluating against
// replayed real-world 4G/HSDPA measurements.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Trace is a piecewise-constant bandwidth function: Samples[i] is the
// bandwidth in bytes/second during [i·Interval, (i+1)·Interval). Replay is
// cyclic, so the trace is defined for all t ≥ 0.
//
// Samples must not be mutated once the trace is in use: the trace caches
// a prefix-sum index over them (see index.go), built by New or else by the
// first query, which would go stale. Derive modified traces with Clone,
// which never shares the cache, or build a new one with New.
type Trace struct {
	// Name identifies the trace (e.g. "walking-4g-03").
	Name string
	// Interval is the sample spacing in seconds (> 0).
	Interval float64
	// Samples holds bandwidth values in bytes/second (≥ 0).
	Samples []float64

	// idx caches the lazily built acceleration index (see index.go).
	idx atomic.Pointer[traceIndex]
}

// ErrEmptyTrace is returned when an operation requires at least one sample.
var ErrEmptyTrace = errors.New("trace: empty trace")

// New validates and constructs a trace and builds its prefix index
// (index.go) on the calling goroutine, so a trace set generated in
// parallel is indexed in parallel too and its first query builds nothing.
func New(name string, interval float64, samples []float64) (*Trace, error) {
	if !(interval > 0) || math.IsInf(interval, 1) {
		// NaN would reach an int conversion in locate and index out of range.
		return nil, fmt.Errorf("trace %q: interval %v must be positive and finite", name, interval)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("trace %q: %w", name, ErrEmptyTrace)
	}
	for i, s := range samples {
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("trace %q: sample %d = %v is invalid", name, i, s)
		}
	}
	tr := &Trace{Name: name, Interval: interval, Samples: samples}
	tr.index()
	return tr, nil
}

// MustNew is New, panicking on error; intended for tests and literals.
func MustNew(name string, interval float64, samples []float64) *Trace {
	tr, err := New(name, interval, samples)
	if err != nil {
		panic(err)
	}
	return tr
}

// Duration returns the length of one replay cycle in seconds.
func (tr *Trace) Duration() float64 {
	return float64(len(tr.Samples)) * tr.Interval
}

// At returns the bandwidth at time t (seconds), replaying cyclically.
// Negative t is treated as 0.
func (tr *Trace) At(t float64) float64 {
	if t < 0 {
		t = 0
	}
	idx, _ := tr.locate(t)
	return tr.Samples[idx]
}

// Integrate returns the number of bytes transferred over [t0, t1]
// (∫ B(t) dt), handling cyclic replay and partial intervals exactly. With
// the prefix-sum index the cost is O(1) regardless of window length: the
// cumulative volume at each endpoint is a prefix lookup plus a fractional
// segment, and whole replay cycles contribute an exact multiple of the
// per-cycle volume.
func (tr *Trace) Integrate(t0, t1 float64) float64 {
	if t1 < t0 {
		t0, t1 = t1, t0
	}
	if t0 < 0 {
		t0 = 0
	}
	if t1 <= t0 {
		return 0
	}
	ix := tr.index()
	d := tr.Duration()
	i0, u0 := tr.locate(t0)
	i1, u1 := tr.locate(t1)
	// (t - u) is an exact whole number of cycles; Round recovers the count
	// without the drift a bare Floor(t/d) picks up on large clocks.
	k0 := math.Round((t0 - u0) / d)
	k1 := math.Round((t1 - u1) / d)
	total := (k1-k0)*ix.cycleVol + ix.cum(tr, i1, u1) - ix.cum(tr, i0, u0)
	if total < 0 { // float jitter on a near-empty window
		total = 0
	}
	return total
}

// cycleVolume returns the bytes transferred over one full replay cycle.
func (tr *Trace) cycleVolume() float64 {
	return tr.index().cycleVol
}

// Average returns the mean bandwidth over [t0, t1] in bytes/second. If the
// window is empty it returns the instantaneous bandwidth at t0.
func (tr *Trace) Average(t0, t1 float64) float64 {
	if t1 <= t0 {
		return tr.At(t0)
	}
	return tr.Integrate(t0, t1) / (t1 - t0)
}

// UploadFinish returns the time at which an upload of `bytes` that starts at
// time t0 completes: the earliest t ≥ t0 with Integrate(t0, t) ≥ bytes and
// positive instantaneous bandwidth (an upload cannot complete inside an
// outage, matching the segment walker this engine replaced). It returns an
// error if t0 is not finite, or if the trace's per-cycle volume is zero (the
// upload would never finish) while bytes > 0.
//
// An upload too small to change the cumulative volume at t0 (one below
// ~1e-16 of it) finishes at t0, as a zero-byte one does, so the result is
// never before t0.
//
// The solve costs O(1) plus a galloping search: t0 is wrapped into the
// cycle by an exact FMA remainder (mod), the target cumulative volume is
// reduced modulo the per-cycle volume, and the finishing segment is found
// by galloping over the prefix array from t0's own segment — a few probes
// for an upload that ends a segment or two after it starts, O(log n) at
// worst, however many replay cycles the upload spans.
func (tr *Trace) UploadFinish(t0 float64, bytes float64) (float64, error) {
	if math.IsNaN(t0) || math.IsInf(t0, 0) {
		// The clamp below passes NaN, and locate cannot place a non-finite
		// time in any segment.
		return 0, fmt.Errorf("trace %q: upload start time %v is not finite", tr.Name, t0)
	}
	if bytes <= 0 {
		return t0, nil
	}
	if t0 < 0 {
		t0 = 0
	}
	ix := tr.index()
	if ix.cycleVol <= 0 {
		return 0, fmt.Errorf("trace %q: zero bandwidth everywhere, upload of %v bytes never finishes", tr.Name, bytes)
	}
	d := tr.Duration()
	i0, u0 := tr.locate(t0)
	base := t0 - u0 // wall-clock start of t0's replay cycle
	// Cumulative volume (from base) at which the upload completes.
	start := ix.cum(tr, i0, u0)
	target := start + bytes
	if target == start {
		// bytes is too small to move the cumulative volume, and a search
		// for start itself could land on the end of a positive segment
		// before an outage holding t0.
		return t0, nil
	}
	cycles := math.Floor(target / ix.cycleVol)
	rem := target - cycles*ix.cycleVol
	if rem <= 0 {
		// The target is an exact multiple of the cycle volume: the upload
		// finishes at the end of the last positive segment of the final
		// cycle (trailing outage time transfers nothing), which is where
		// the in-cycle search lands when asked for the full cycle volume.
		cycles--
		rem = ix.cycleVol
	}
	return base + cycles*d + ix.invCum(tr, i0, rem), nil
}

// History returns the H+1 most recent slot averages ending at the slot that
// contains time t, most recent first:
//
//	[B(⌊t/h⌋), B(⌊t/h⌋-1), …, B(⌊t/h⌋-H)]
//
// exactly matching the paper's state definition.
func (tr *Trace) History(t, h float64, H int) []float64 {
	return tr.HistoryInto(nil, t, h, H)
}

// HistoryInto is History writing into a caller-provided buffer: dst is
// resliced to H+1 entries (reallocated only when its capacity is short) and
// returned. With an adequate buffer a steady-state call performs no
// allocation — the zero-allocation contract the simulation hot path relies
// on (DESIGN.md §10).
func (tr *Trace) HistoryInto(dst []float64, t, h float64, H int) []float64 {
	if H < 0 {
		panic("trace: negative history length")
	}
	if cap(dst) < H+1 {
		dst = make([]float64, H+1)
	} else {
		dst = dst[:H+1]
	}
	j := int(math.Floor(t / h))
	for k := 0; k <= H; k++ {
		dst[k] = tr.Slot(j-k, h)
	}
	return dst
}

// Stats summarizes a trace for reporting.
type Stats struct {
	Min, Max, Mean, Std float64
}

// Summary computes bandwidth statistics across the samples.
func (tr *Trace) Summary() Stats {
	var s Stats
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	var sum, sq float64
	for _, x := range tr.Samples {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
		sq += x * x
	}
	n := float64(len(tr.Samples))
	s.Mean = sum / n
	variance := sq/n - s.Mean*s.Mean
	if variance < 0 {
		variance = 0
	}
	s.Std = math.Sqrt(variance)
	return s
}

// Clone returns a deep copy of the trace. The cached index is deliberately
// not shared: the clone re-indexes lazily from its own samples, so the
// clone-then-edit pattern can never poison the original's cache (nor read a
// stale one).
func (tr *Trace) Clone() *Trace {
	return &Trace{
		Name:     tr.Name,
		Interval: tr.Interval,
		Samples:  append([]float64(nil), tr.Samples...),
	}
}
