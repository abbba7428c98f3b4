package env

import (
	"testing"

	"repro/internal/tensor"
	"repro/internal/testutil"
)

func TestBuildStateStandalone(t *testing.T) {
	sys := testSystem()
	cfg := DefaultConfig()
	s, _ := BuildStateInto(nil, nil, sys, 100, cfg)
	if len(s) != sys.N()*(cfg.History+1) {
		t.Fatalf("state len %d", len(s))
	}
	// Identical inputs are deterministic.
	s2, _ := BuildStateInto(nil, nil, sys, 100, cfg)
	if !tensor.Equal(s, s2) {
		t.Fatal("BuildStateInto not deterministic")
	}
	// Different clocks change the state (traces are ramps).
	s3, _ := BuildStateInto(nil, nil, sys, 200, cfg)
	if tensor.Equal(s, s3) {
		t.Fatal("state ignores the clock")
	}
}

func TestMapActionStandalone(t *testing.T) {
	sys := testSystem()
	fs, err := MapActionInto(nil, sys, tensor.Vector{0, 0, 0}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range sys.Devices {
		want := (0.1 + 0.9/2) * d.MaxFreqHz
		if !testutil.Within(fs[i], want, 1e-6) {
			t.Fatalf("mid action freq %v want %v", fs[i], want)
		}
	}
	if _, err := MapActionInto(nil, sys, tensor.Vector{0}, 0.1); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := MapActionInto(nil, sys, tensor.Vector{0, 0, 0}, 0); err == nil {
		t.Fatal("minFrac 0 accepted")
	}
	if _, err := MapActionInto(nil, sys, tensor.Vector{0, 0, 0}, 1); err == nil {
		t.Fatal("minFrac 1 accepted")
	}
}

func TestMapActionMonotone(t *testing.T) {
	// Larger raw action ⇒ higher frequency, always.
	sys := testSystem()
	prev := -1.0
	for _, a := range []float64{-2, -1, -0.5, 0, 0.5, 1, 2} {
		fs, err := MapActionInto(nil, sys, tensor.Vector{a, a, a}, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if fs[0] < prev {
			t.Fatalf("non-monotone mapping at a=%v", a)
		}
		prev = fs[0]
	}
}
