package stat

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {0.01, 1}, {1, 10},
	} {
		if got := Nearest(s, c.p); got != c.want {
			t.Errorf("Nearest(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	withFail := []float64{1, 2, math.Inf(1)}
	if got := Nearest(withFail, 0.99); !math.IsInf(got, 1) {
		t.Errorf("a failed request must land past the limit, got %v", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The reference values are Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 7, 2, 8, 4}, [3]float64{2, 4, 8}},
	} {
		q1, med, q3 := Quartiles(c.v)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func iv(a, b int) Interval { return Interval{time.Duration(a), time.Duration(b)} }

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	for _, c := range []struct {
		name     string
		children []Interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []Interval{iv(10, 20), iv(40, 70)}, 60},
		{"overlapping children count once", []Interval{iv(10, 20), iv(15, 30)}, 80},
		{"child sticking out is clipped", []Interval{iv(90, 120), iv(-5, 5)}, 85},
		{"nested", []Interval{iv(10, 50), iv(20, 30)}, 60},
		{"fully covered", []Interval{iv(0, 100)}, 0},
	} {
		if got := SelfTime(iv(0, 100), c.children); got != c.want {
			t.Errorf("%s: SelfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

// A synthetic queueing latency curve: p99 = base/(1 − rate/capacity), with
// the backlog growing past capacity.
func synthetic(base, capacity float64, noise func() float64) func(float64) Probe {
	return func(rate float64) Probe {
		if rate >= capacity {
			return Probe{Rate: rate, P99: math.Inf(1), Unstable: true}
		}
		return Probe{Rate: rate, P99: base / (1 - rate/capacity) * noise()}
	}
}

func TestMaxRateFindsTheCrossing(t *testing.T) {
	const base, limit, capacity = 1.0, 10.0, 9000.0
	cross := capacity * (1 - base/limit) // p99 = limit here: 8100
	var probes int
	exact := synthetic(base, capacity, func() float64 { return 1 })
	got := MaxRate(2000, 40000, 1.5, 3, limit, func(r float64) Probe { probes++; return exact(r) })
	if math.Abs(got-cross)/cross > 0.002 {
		t.Errorf("noise-free MaxRate = %v, want %v", got, cross)
	}
	// 2000, 3000, 4500, 6750 pass; 10125 is past capacity; three more
	// probes inside the bracket.
	if probes != 5+3 {
		t.Errorf("%d probes, want 5 growth + 3 inside the bracket", probes)
	}

	// ±25% multiplicative noise on every probe moves the fit far less
	// than it would move a single probe's verdict.
	rng := rand.New(rand.NewSource(1))
	var errs []float64
	for i := 0; i < 50; i++ {
		noisy := synthetic(base, capacity, func() float64 { return 1 + 0.25*(2*rng.Float64()-1) })
		errs = append(errs, math.Abs(MaxRate(2000, 40000, 1.5, 3, limit, noisy)-cross)/cross)
	}
	if med := Median(errs); med > 0.05 {
		t.Errorf("median relative error under noise %.3f, want <= 0.05", med)
	}

	// Starting above the crossing, the search steps down until a probe
	// passes and still finds it.
	if r := MaxRate(9000, 40000, 1.5, 3, limit, exact); math.Abs(r-cross)/cross > 0.002 {
		t.Errorf("MaxRate from above the crossing = %v, want %v", r, cross)
	}
	if r := MaxRate(2000, 40000, 1.5, 3, 0.5, exact); r != 0 {
		t.Errorf("a limit even an idle server misses gives %v, want 0", r)
	}
	flat := func(r float64) Probe { return Probe{Rate: r, P99: 1} }
	if r := MaxRate(2000, 40000, 1.5, 3, limit, flat); r != 40000 {
		t.Errorf("a curve that never crosses gives %v, want the ceiling", r)
	}
}

func TestFitCurveRecoversTheModel(t *testing.T) {
	var probes []Probe
	for _, r := range []float64{1000, 3000, 5000, 7000, 8000} {
		probes = append(probes, Probe{Rate: r, P99: 2 / (1 - r/9000)})
	}
	probes = append(probes, Probe{Rate: 9500, P99: math.Inf(1), Unstable: true})
	c, capacity := FitCurve(probes)
	if math.Abs(c-2) > 0.01 || math.Abs(capacity-9000)/9000 > 0.002 {
		t.Errorf("FitCurve = (%v, %v), want (2, 9000)", c, capacity)
	}
	if c, _ := FitCurve(probes[:1]); !math.IsInf(c, 1) {
		t.Errorf("one probe cannot be fitted, got c = %v", c)
	}
}

func TestBacklog(t *testing.T) {
	inf := time.Duration(math.MaxInt64)
	due := []time.Duration{0, 10, 20, 30, 40}
	done := []time.Duration{5, 35, 25, inf, 45}
	if got := Backlog(due, done, 30); got != 2 { // due ≤ 30, not done by 30: #1, #3
		t.Errorf("Backlog at 30 = %d, want 2", got)
	}
	if !BacklogGrows(2, 9, 4) || BacklogGrows(2, 3, 4) || BacklogGrows(9, 8, 4) {
		t.Error("BacklogGrows: want growth only above the allowance and above the midpoint")
	}
}

type capture struct{ msgs []string }

func (c *capture) Errorf(format string, args ...interface{}) {
	c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
}

func TestWithinRelReportsCaller(t *testing.T) {
	var c capture
	if !WithinRel(&c, 104, 100, 0.05) {
		t.Fatal("4% off must pass a 5% bound")
	}
	if WithinRel(&c, 106, 100, 0.05) {
		t.Fatal("6% off must fail a 5% bound")
	}
	if len(c.msgs) != 1 || !strings.HasPrefix(c.msgs[0], "stat_test.go:") {
		t.Fatalf("want one message naming this file and line, got %q", c.msgs)
	}
}

func seq(start, step float64, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = start + step*float64(i)
	}
	return v
}

func TestCompareRules(t *testing.T) {
	parent := seq(100, 1, 10) // median 104.5, IQR 5.5, spread ~5%
	for _, c := range []struct {
		name        string
		change      []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"no change", seq(100.5, 1, 10), true, 0.1, Same},
		{"regression beyond the bound", seq(120, 1, 10), true, 0.1, Regression},
		{"worse within the bound", seq(105, 1, 10), true, 0.1, Same},
		{"spread wider than the bound", []float64{50, 150, 80, 130, 100, 60, 140, 90, 120, 110}, true, 0.1, Unresolved},
		{"higher is better: a drop regresses", seq(80, 1, 10), false, 0.1, Regression},
		{"every run better than every parent run", seq(80, 1, 10), true, 0.1, Gain},
		{"all better but medians within the parent IQR", seq(99.9, -0.01, 10), true, 0.1, Better},
		// Wins 9 of 10 pairs by more than the parent's IQR, one pair lost.
		{"nine in ten pairs", append(seq(93, 1, 9), 200), true, 0.5, Gain},
		// Wins only 8 of 10 pairs: no gain.
		{"eight in ten pairs", append(seq(93, 1, 8), 200, 200), true, 0.5, Same},
	} {
		var r capture
		got := Compare(&r, parent, c.change, c.lowerBetter, c.bound)
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %q (worse %.3f, spread %.3f, wins %d/%d), want %q",
				c.name, got.Verdict, got.Worse, got.Spread, got.Wins, got.Pairs, c.want)
		}
		if (got.Verdict == Regression) != (len(r.msgs) == 1) {
			t.Errorf("%s: a regression and only a regression reports a message, got %q", c.name, r.msgs)
		}
	}
}
