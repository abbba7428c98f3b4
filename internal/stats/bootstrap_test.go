package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestBootstrapMeanBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 5 + rng.NormFloat64()
	}
	// Against a constant zero sample, the interval on the difference is one
	// on the mean of xs.
	ci := MeanDiffCI(xs, []float64{0}, 500, 0.95, 7)
	if !ci.Contains(ci.Point) {
		t.Fatalf("interval excludes its own point: %v", ci)
	}
	if math.Abs(ci.Point-Mean(xs)) > 1e-12 {
		t.Fatalf("point %v != sample mean %v", ci.Point, Mean(xs))
	}
	// The true mean (5) should almost surely be inside a 95% interval of a
	// 200-sample unit-variance draw.
	if !ci.Contains(5) {
		t.Fatalf("true mean outside CI: %v", ci)
	}
	// Interval width scales like 2·1.96/√n ≈ 0.28.
	if w := ci.Hi - ci.Lo; w < 0.1 || w > 0.6 {
		t.Fatalf("implausible CI width %v", w)
	}
	if ci.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestBootstrapDeterministicUnderSeed(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ys := []float64{2, 4, 6}
	a := MeanDiffCI(xs, ys, 200, 0.9, 42)
	b := MeanDiffCI(xs, ys, 200, 0.9, 42)
	if a != b {
		t.Fatalf("same seed gave %v vs %v", a, b)
	}
	c := MeanDiffCI(xs, ys, 200, 0.9, 43)
	if a.Lo == c.Lo && a.Hi == c.Hi {
		t.Fatal("different seed should perturb the interval")
	}
}

func TestBootstrapHigherLevelWider(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 3
	}
	narrow := MeanDiffCI(xs, xs[:30], 800, 0.8, 1)
	wide := MeanDiffCI(xs, xs[:30], 800, 0.99, 1)
	if wide.Hi-wide.Lo <= narrow.Hi-narrow.Lo {
		t.Fatalf("99%% interval %v not wider than 80%% %v", wide, narrow)
	}
}

func TestBootstrapPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"diff a":      func() { MeanDiffCI(nil, []float64{1}, 100, 0.9, 1) },
		"diff b":      func() { MeanDiffCI([]float64{1}, nil, 100, 0.9, 1) },
		"diff r":      func() { MeanDiffCI([]float64{1}, []float64{1}, 0, 0.9, 1) },
		"diff lvl lo": func() { MeanDiffCI([]float64{1}, []float64{1}, 10, 0, 1) },
		"diff lvl":    func() { MeanDiffCI([]float64{1}, []float64{1}, 10, 2, 1) },
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

func TestMeanDiffCIDetectsSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]float64, 150)
	b := make([]float64, 150)
	for i := range a {
		a[i] = 10 + rng.NormFloat64()
		b[i] = 7 + rng.NormFloat64()
	}
	ci := MeanDiffCI(a, b, 600, 0.95, 5)
	if ci.Lo <= 0 {
		t.Fatalf("clearly separated means but CI includes 0: %v", ci)
	}
	if !ci.Contains(3) {
		t.Fatalf("true difference 3 outside CI %v", ci)
	}
	// Identical distributions: CI should straddle 0.
	same := MeanDiffCI(a, a, 600, 0.95, 6)
	if !same.Contains(0) {
		t.Fatalf("self-difference CI excludes 0: %v", same)
	}
}
