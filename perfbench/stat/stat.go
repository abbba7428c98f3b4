// Package stat holds the benchmark harness's arithmetic: nearest-rank
// quantiles and the tail percentile a sample supports, the quartiles the
// spread and comparator rules use, span self time, the max-rate search and
// the parent-vs-change comparison rules.
package stat

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Nearest returns the nearest-rank p-quantile (p in (0,1]) of an ascending
// sample: the smallest value with at least p·n values at or below it. +Inf
// entries (failed requests) sort last and are returned as such.
func Nearest(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailLadder is the percentile ladder TailPercentile climbs.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// TailPercentile returns the highest percentile of the ladder 50, 90, 99,
// 99.9, 99.99 that leaves at least ten of n samples beyond it, or 0 when
// not even the median does.
func TailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-int(math.Ceil(p*float64(n))) >= 10 {
			best = p
		}
	}
	return best
}

// Quartiles returns the first quartile, median and third quartile of the
// values with the "exclusive" interpolation of Python's
// statistics.quantiles(values, n=4), the spread definition the benchmark's
// acceptance rule uses. One value yields it three times.
func Quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		// Python clamps j to [1, n-1] before computing delta, so tiny
		// samples extrapolate exactly as statistics.quantiles does.
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Spread is the interquartile distance as a share of the median.
func Spread(values []float64) float64 {
	q1, med, q3 := Quartiles(values)
	return (q3 - q1) / math.Abs(med)
}

// Median is the middle of the values (mean of the middle two when even).
func Median(values []float64) float64 {
	_, med, _ := Quartiles(values)
	return med
}

// Interval is one span's extent.
type Interval struct{ Start, End time.Duration }

// SelfTime is a span's duration minus the part of it that its children
// cover. Children may overlap one another (parallel work) and may stick
// out of the parent; only their union inside the parent is subtracted.
func SelfTime(parent Interval, children []Interval) time.Duration {
	cs := make([]Interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	covered := time.Duration(0)
	var cur Interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			if c.End > cur.End {
				cur.End = c.End
			}
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}

// Probe is one offered rate's outcome: its p99 latency, and whether its
// backlog grew (the rate is past capacity).
type Probe struct {
	Rate, P99 float64
	Unstable  bool
}

// MaxRate estimates the highest offered rate in [0, hi] at which the p99
// latency stays within limit and the backlog does not grow. It probes from
// lo, growing the rate by grow until a probe misses (or hi is reached) — or,
// when lo itself misses, shrinking it by grow until a probe passes, at most
// four times. It then probes extra rates spread geometrically between the
// last passing and the first missing rate, fits the queueing-shaped curve
// p99 = c/(1 − rate/cap) to every probe (FitCurve) and returns the rate at
// which the fitted curve meets the limit. A single noisy probe moves a fit
// over all of them much less than it moves a bisection. It returns 0 when
// no probe passes or the fit says even an idle server misses the limit,
// and hi when the curve stays under it.
func MaxRate(lo, hi, grow float64, extra int, limit float64, probe func(rate float64) Probe) float64 {
	var probes []Probe
	passes := func(r float64) bool {
		p := probe(r)
		probes = append(probes, p)
		return !p.Unstable && p.P99 <= limit
	}
	pass, fail := 0.0, 0.0
	if passes(lo) {
		pass = lo
		for r := lo * grow; ; r *= grow {
			if r > hi {
				r = hi
			}
			if !passes(r) {
				fail = r
				break
			}
			pass = r
			if r == hi {
				return hi
			}
		}
	} else {
		fail = lo
		for r, k := lo/grow, 0; k < 4 && pass == 0; r, k = r/grow, k+1 {
			if passes(r) {
				pass = r
			} else {
				fail = r
			}
		}
		if pass == 0 {
			return 0
		}
	}
	for k := 1; k <= extra; k++ {
		passes(pass * math.Pow(fail/pass, float64(k)/float64(extra+1)))
	}
	c, capacity := FitCurve(probes)
	if !(c < limit) {
		return 0
	}
	return math.Min(hi, capacity*(1-c/limit))
}

// FitCurve fits p99 = c/(1 − rate/capacity) to the stable probes by least
// absolute deviations on log p99, so that one probe hit by a stall of the
// machine pulls the fit little, and returns c and capacity. Capacity lies
// above every stable probe's rate and, where possible, at or below the
// lowest unstable one; it is searched on a fine geometric grid (for a fixed
// capacity the best log c is the median of the residuals). With fewer than
// two stable probes it returns c = +Inf.
func FitCurve(probes []Probe) (c, capacity float64) {
	var stable []Probe
	maxStable, minUnstable := 0.0, math.Inf(1)
	for _, p := range probes {
		if p.Unstable || math.IsInf(p.P99, 0) || math.IsNaN(p.P99) || p.P99 <= 0 {
			minUnstable = math.Min(minUnstable, p.Rate)
			continue
		}
		stable = append(stable, p)
		maxStable = math.Max(maxStable, p.Rate)
	}
	if len(stable) < 2 {
		return math.Inf(1), 0
	}
	lo, hi := maxStable*(1+1e-6), maxStable*100
	if minUnstable > lo && minUnstable < hi {
		hi = minUnstable
	}
	const steps = 4000
	best := math.Inf(1)
	ys := make([]float64, len(stable))
	for i := 0; i <= steps; i++ {
		capAt := lo * math.Pow(hi/lo, float64(i)/steps)
		for j, p := range stable {
			ys[j] = math.Log(p.P99) + math.Log(1-p.Rate/capAt)
		}
		logc := Median(ys)
		dev := 0.0
		for _, y := range ys {
			dev += math.Abs(y - logc)
		}
		if dev < best {
			best, c, capacity = dev, math.Exp(logc), capAt
		}
	}
	return c, capacity
}

// Backlog is the number of requests due by t that had not completed by t,
// given each request's due and completion offsets (+Inf for never).
func Backlog(due, done []time.Duration, t time.Duration) int {
	n := 0
	for i := range due {
		if due[i] <= t && done[i] > t {
			n++
		}
	}
	return n
}

// BacklogGrows reports whether the backlog at the end of a run exceeds the
// allowance and the backlog at its midpoint: requests pile up faster than
// they drain.
func BacklogGrows(mid, end, allowance int) bool {
	return end > allowance && end > mid
}

// Reporter receives comparator findings; *testing.T satisfies it.
type Reporter interface {
	Errorf(format string, args ...interface{})
}

// WithinRel reports whether got lies within bound (a share) of want. When
// it does not, it reports the caller's file and line, so a failed check
// names the comparison that made it.
func WithinRel(r Reporter, got, want, bound float64) bool {
	d := math.Abs(got-want) / math.Abs(want)
	if d <= bound {
		return true
	}
	_, file, line, _ := runtime.Caller(1)
	r.Errorf("%s:%d: got %.6g; want %.6g within %.3g (off by %.3g)", filepath.Base(file), line, got, want, bound, d)
	return false
}

// Verdicts of Compare.
const (
	Same       = "same"
	Gain       = "gain"
	Better     = "better"
	Regression = "REGRESSION"
	Unresolved = "unresolved"
)

// Comparison is one workload × metric row of a parent-vs-change compare.
type Comparison struct {
	ParentQ, ChangeQ [3]float64 // q1, median, q3
	// Worse is the change's median relative to the parent's, signed so
	// that positive is worse for the metric's direction.
	Worse float64
	// Spread is the wider of the two sides' interquartile spreads.
	Spread float64
	// Wins and Pairs count pairs the change won (ties count for neither)
	// out of the pairs compared.
	Wins, Pairs int
	Verdict     string
}

// Compare applies the benchmark's rules to paired runs of the parent and
// the change (parent[i] and change[i] ran on the same seed, one after the
// other); lowerBetter gives the metric's direction and bound its allowed
// worsening as a share of the parent's median.
//
//   - Every change run better than every parent run: a gain when the
//     nine-in-ten pairs rule also holds, else "better".
//   - A spread wider than the bound: unresolved.
//   - A median worse by more than the bound: a regression.
//   - The change wins at least nine tenths of the pairs and the medians
//     differ by more than the parent's interquartile distance: a gain.
//   - Otherwise the same.
func Compare(r Reporter, parent, change []float64, lowerBetter bool, bound float64) Comparison {
	var c Comparison
	c.ParentQ[0], c.ParentQ[1], c.ParentQ[2] = Quartiles(parent)
	c.ChangeQ[0], c.ChangeQ[1], c.ChangeQ[2] = Quartiles(change)
	sign := 1.0
	if !lowerBetter {
		sign = -1
	}
	c.Worse = sign * (c.ChangeQ[1] - c.ParentQ[1]) / math.Abs(c.ParentQ[1])
	c.Spread = math.Max(Spread(parent), Spread(change))
	better := func(ch, pa float64) bool { return sign*(ch-pa) < 0 }
	n := len(parent)
	if len(change) < n {
		n = len(change)
	}
	for i := 0; i < n; i++ {
		if better(change[i], parent[i]) {
			c.Wins++
		}
	}
	c.Pairs = n
	gain := n > 0 && 10*c.Wins >= 9*n &&
		math.Abs(c.ChangeQ[1]-c.ParentQ[1]) > c.ParentQ[2]-c.ParentQ[0]
	allBetter := len(parent) > 0 && len(change) > 0
	for _, ch := range change {
		for _, pa := range parent {
			if !better(ch, pa) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter && gain:
		c.Verdict = Gain
	case allBetter:
		c.Verdict = Better
	case c.Spread > bound:
		c.Verdict = Unresolved
	case c.Worse > 0 && !WithinRel(r, c.ChangeQ[1], c.ParentQ[1], bound):
		c.Verdict = Regression
	case gain:
		c.Verdict = Gain
	default:
		c.Verdict = Same
	}
	return c
}

// QuartileString renders one side's median and quartiles.
func QuartileString(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
