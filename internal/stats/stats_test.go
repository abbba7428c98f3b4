package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("summary = %+v", s)
	}
	if !approx(s.Mean, 5, 1e-12) || !approx(s.Std, 2, 1e-12) {
		t.Fatalf("mean/std = %v/%v", s.Mean, s.Std)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Std != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}

func TestMeanStdAgreeWithNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		naiveMean := sum / float64(n)
		var sq float64
		for _, x := range xs {
			sq += (x - naiveMean) * (x - naiveMean)
		}
		naiveStd := math.Sqrt(sq / float64(n))
		return approx(Mean(xs), naiveMean, 1e-9) && approx(Summarize(xs).Std, naiveStd, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40}, {12.5, 15},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !approx(got, c.want, 1e-12) {
			t.Errorf("P%v = %v want %v", c.p, got, c.want)
		}
	}
	if Percentile([]float64{7}, 50) != 7 {
		t.Fatal("single-element percentile")
	}
}

func TestPercentilePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":   func() { Percentile(nil, 50) },
		"p < 0":   func() { Percentile([]float64{1}, -1) },
		"p > 100": func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); !approx(got, cse.want, 1e-12) {
			t.Errorf("F(%v) = %v want %v", cse.x, got, cse.want)
		}
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Fatalf("Q(0.5) = %v", got)
	}
	if got := c.Quantile(1); got != 3 {
		t.Fatalf("Q(1) = %v", got)
	}
	if got := c.Quantile(0.01); got != 1 {
		t.Fatalf("Q(0.01) = %v", got)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(40))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 5
		}
		c := NewCDF(xs)
		prev := -0.1
		for q := -6.0; q <= 6.0; q += 0.37 {
			v := c.At(q)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return c.At(math.Inf(1)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFQuantileInverse(t *testing.T) {
	// F(Q(q)) ≥ q for all sample-achievable q.
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 31)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	c := NewCDF(xs)
	for q := 0.05; q <= 1.0; q += 0.05 {
		if c.At(c.Quantile(q)) < q-1e-12 {
			t.Fatalf("F(Q(%v)) = %v < q", q, c.At(c.Quantile(q)))
		}
	}
}

func TestCDFEdge(t *testing.T) {
	empty := NewCDF(nil)
	if empty.At(3) != 0 {
		t.Fatal("empty CDF At should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile on empty CDF should panic")
		}
	}()
	empty.Quantile(0.5)
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{0, 1, 2, 3, 4})
	xs, fs := c.Points(5)
	if len(xs) != 5 || len(fs) != 5 {
		t.Fatalf("points = %v %v", xs, fs)
	}
	if xs[0] != 0 || xs[4] != 4 || fs[4] != 1 {
		t.Fatalf("points span wrong: %v %v", xs, fs)
	}
	if !sort.Float64sAreSorted(fs) {
		t.Fatal("CDF points not monotone")
	}
	if x, f := NewCDF([]float64{5}).Points(3); len(x) != 3 || f[0] != 1 || x[2] != 5 {
		t.Fatalf("degenerate points = %v %v", x, f)
	}
	if x, _ := c.Points(0); x != nil {
		t.Fatal("n=0 should yield nil")
	}
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ma := MovingAverage(xs, 2)
	want := []float64{1, 1.5, 2.5, 3.5, 4.5}
	for i := range want {
		if !approx(ma[i], want[i], 1e-12) {
			t.Fatalf("MA = %v want %v", ma, want)
		}
	}
	cp := MovingAverage(xs, 1)
	for i := range xs {
		if cp[i] != xs[i] {
			t.Fatal("width 1 should copy")
		}
	}
	if len(MovingAverage(nil, 3)) != 0 {
		t.Fatal("empty input")
	}
}
