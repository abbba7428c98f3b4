// Package stats provides the descriptive statistics used by the evaluation
// harness: summary moments, percentiles, empirical CDFs (the paper's
// Fig. 7(d)–(f)), moving averages and bootstrap confidence intervals.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the basic descriptive statistics of a sample.
type Summary struct {
	N                   int
	Min, Max, Mean, Std float64
}

// Summarize computes the summary of xs; an empty sample yields a zero value.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	var sum float64
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	s.Std = math.Sqrt(sq / float64(len(xs)))
	return s
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g max=%.4g mean=%.4g std=%.4g", s.N, s.Min, s.Max, s.Mean, s.Std)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between order statistics. It panics on an empty sample or
// out-of-range p.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty sample")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	// Xs are the sorted sample values.
	Xs []float64
}

// NewCDF builds an empirical CDF from a sample.
func NewCDF(xs []float64) *CDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &CDF{Xs: sorted}
}

// At returns P(X ≤ x) ∈ [0, 1].
func (c *CDF) At(x float64) float64 {
	if len(c.Xs) == 0 {
		return 0
	}
	// Count of values ≤ x via binary search for the first value > x.
	idx := sort.SearchFloat64s(c.Xs, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.Xs))
}

// Quantile returns the smallest sample value v with P(X ≤ v) ≥ q, for
// q ∈ (0, 1]. It panics on an empty CDF or out-of-range q.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.Xs) == 0 {
		panic("stats: Quantile of empty CDF")
	}
	if q <= 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of (0,1]", q))
	}
	idx := int(math.Ceil(q*float64(len(c.Xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.Xs) {
		idx = len(c.Xs) - 1
	}
	return c.Xs[idx]
}

// Points returns n evenly spaced (x, F(x)) pairs spanning the sample range,
// suitable for plotting a CDF curve like Fig. 7(d)–(f).
func (c *CDF) Points(n int) (xs, fs []float64) {
	if len(c.Xs) == 0 || n <= 0 {
		return nil, nil
	}
	lo, hi := c.Xs[0], c.Xs[len(c.Xs)-1]
	xs = make([]float64, n)
	fs = make([]float64, n)
	if n == 1 || lo == hi {
		// Degenerate range: report the single value at F=1 across the
		// requested width so aligned CSV exports keep their shape.
		for i := range xs {
			xs[i] = hi
			fs[i] = 1
		}
		return xs, fs
	}
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		xs[i] = x
		fs[i] = c.At(x)
	}
	return xs, fs
}

// MovingAverage smooths a series with a trailing window of the given width,
// used for the Fig. 6 convergence curves. Width ≤ 1 returns a copy.
func MovingAverage(xs []float64, width int) []float64 {
	out := make([]float64, len(xs))
	if width <= 1 {
		copy(out, xs)
		return out
	}
	var sum float64
	for i, x := range xs {
		sum += x
		if i >= width {
			sum -= xs[i-width]
			out[i] = sum / float64(width)
		} else {
			out[i] = sum / float64(i+1)
		}
	}
	return out
}
