package trace

import "math"

// This file is the indexed trace engine. A Trace builds (and caches) a
// prefix-sum index of cumulative byte volume at sample boundaries, in New
// or else on its first query, which turns the windowed integral of eq. (3)
// into O(1) arithmetic on two prefix lookups, the upload-finish solve into
// a galloping search over the prefix array from the upload's start
// segment, and a slot average into two prefix lookups (slots.go). Every wall-clock time is wrapped into the replay cycle
// by mod, an exact FMA remainder equal to math.Mod bit for bit.
// The index is derived state only: it is built deterministically from
// (Interval, Samples), it is dropped by Clone (copy-on-write safety — a
// clone whose samples are then edited re-indexes lazily from its own data),
// and concurrent builds are benign because every builder produces the same
// values and the cache is an atomic pointer swap.
//
// Invariant required of callers: a Trace's Samples must not be mutated after
// the trace is first used. Mutate-after-Clone, the pattern the tests use,
// is safe because Clone never shares the cache.

// traceIndex is the immutable acceleration structure of one Trace.
type traceIndex struct {
	// prefix[i] is the byte volume over [0, i·Interval); len(Samples)+1
	// entries, monotone non-decreasing, prefix[n] = cycleVol.
	prefix []float64
	// cycleVol is the byte volume of one full replay cycle.
	cycleVol float64
}

// index returns the trace's acceleration structure, building it on first
// use. Concurrent callers may race to build; every build yields identical
// values, so whichever store wins is equivalent.
func (tr *Trace) index() *traceIndex {
	if ix := tr.idx.Load(); ix != nil && len(ix.prefix) == len(tr.Samples)+1 {
		return ix
	}
	n := len(tr.Samples)
	ix := &traceIndex{prefix: make([]float64, n+1)}
	for i, s := range tr.Samples {
		ix.prefix[i+1] = ix.prefix[i] + s*tr.Interval
	}
	ix.cycleVol = ix.prefix[n]
	tr.idx.Store(ix)
	return ix
}

// mod returns math.Mod(t, d) bit for bit for d > 0. math.Mod is a software
// loop with one pass per bit of t/d, which a clock many replay cycles past
// zero pays on every lookup. For 0 < t and t/d < 2^52, q = Floor(t/d) is the
// true quotient or, when the division rounded up to the next integer, one
// more; the true remainder t - q·d is representable, so the single rounding
// of FMA returns it exactly, and a negative result means q overshot by one.
// Anything else (negative or non-finite t, huge quotients, a result outside
// [0, d)) falls back to math.Mod. t in [0, d) is returned as is, which keeps
// a -0.
func mod(t, d float64) float64 {
	if t >= 0 && t < d {
		return t
	}
	if t > 0 {
		if q := math.Floor(t / d); q < 1<<52 {
			r := math.FMA(-q, d, t)
			if r < 0 {
				r = math.FMA(-(q - 1), d, t)
			}
			if r >= 0 && r < d {
				return r
			}
		}
	}
	return math.Mod(t, d)
}

// locate maps a wall-clock time t ≥ 0 to its position in the cyclic replay:
// the sample index holding t and the within-cycle offset u ∈ [0, d). It is
// the one shared segment lookup behind At, Integrate, UploadFinish and the
// slot averages, including the single float-edge clamp at exactly u = d.
func (tr *Trace) locate(t float64) (idx int, u float64) {
	u = mod(t, tr.Duration())
	idx = int(u / tr.Interval)
	if idx >= len(tr.Samples) { // float edge at exactly one cycle
		idx = len(tr.Samples) - 1
	}
	return idx, u
}

// cum returns the byte volume over [0, u) of one cycle, where (idx, u) came
// from locate. The fractional term is clamped to the sample so float jitter
// in the division can never push the volume outside the segment.
func (ix *traceIndex) cum(tr *Trace, idx int, u float64) float64 {
	frac := u - float64(idx)*tr.Interval
	if frac < 0 {
		frac = 0
	} else if frac > tr.Interval {
		frac = tr.Interval
	}
	return ix.prefix[idx] + tr.Samples[idx]*frac
}

// invCum returns the earliest within-cycle time at which the cumulative
// volume reaches rem ∈ (0, cycleVol]: the least segment i with
// prefix[i+1] ≥ rem. hint is the upload's start segment. The prefix array
// is non-decreasing, so when prefix[hint] < rem no earlier segment
// qualifies and the search starts at hint; otherwise (a wrapped upload
// that ends earlier in a later cycle) it starts at 0. Either way it finds
// what a search over the whole array finds. From its start the search
// gallops (probing prefix[from+1], prefix[from+2], prefix[from+4], …) until
// a probe reaches rem, then bisects the last bracket: a short upload ends a
// segment or two after it starts, so this costs a few probes rather than
// log n. The found segment necessarily has positive rate: rem > prefix[i]
// and rem ≤ prefix[i+1] together force Samples[i] > 0.
func (ix *traceIndex) invCum(tr *Trace, hint int, rem float64) float64 {
	n := len(tr.Samples)
	from := 0
	if ix.prefix[hint] < rem {
		from = hint
	}
	// Every segment below lo fails; hi is n or a segment that qualifies.
	lo, hi := from, n
	for step := 1; ; step <<= 1 {
		probe := from + step - 1
		if probe >= n {
			break
		}
		if ix.prefix[probe+1] >= rem {
			hi = probe
			break
		}
		lo = probe + 1
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ix.prefix[m+1] >= rem {
			hi = m
		} else {
			lo = m + 1
		}
	}
	i := lo
	if i >= n {
		// rem exceeded cycleVol by float noise; land on the cycle end.
		return tr.Duration()
	}
	return float64(i)*tr.Interval + (rem-ix.prefix[i])/tr.Samples[i]
}
