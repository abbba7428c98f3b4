package trace

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewValidation(t *testing.T) {
	if _, err := New("x", 0, []float64{1}); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := New("x", 1, nil); err == nil {
		t.Fatal("empty samples accepted")
	}
	if _, err := New("x", 1, []float64{-1}); err == nil {
		t.Fatal("negative sample accepted")
	}
	if _, err := New("x", 1, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN sample accepted")
	}
	if _, err := New("x", math.NaN(), []float64{1}); err == nil {
		t.Fatal("NaN interval accepted")
	}
	if _, err := New("x", math.Inf(1), []float64{1}); err == nil {
		t.Fatal("infinite interval accepted")
	}
	if _, err := New("x", 1, []float64{1, 2}); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on invalid input")
		}
	}()
	MustNew("bad", -1, []float64{1})
}

func TestAtCyclic(t *testing.T) {
	tr := MustNew("t", 1, []float64{10, 20, 30})
	cases := []struct{ t, want float64 }{
		{0, 10}, {0.5, 10}, {1, 20}, {2.9, 30},
		{3, 10}, {4.5, 20}, {-5, 10},
	}
	for _, c := range cases {
		if got := tr.At(c.t); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestIntegrateKnown(t *testing.T) {
	tr := MustNew("t", 1, []float64{10, 20, 30})
	cases := []struct{ t0, t1, want float64 }{
		{0, 1, 10},
		{0, 3, 60},
		{0.5, 1.5, 5 + 10},
		{0, 6, 120},        // two cycles
		{2.5, 3.5, 15 + 5}, // wrap
		{1, 1, 0},
		{2, 1, 20}, // swapped bounds behave as [1,2]
	}
	for _, c := range cases {
		if got := tr.Integrate(c.t0, c.t1); !approx(got, c.want, 1e-9) {
			t.Errorf("Integrate(%v,%v) = %v, want %v", c.t0, c.t1, got, c.want)
		}
	}
}

func TestIntegrateAdditivityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	samples := make([]float64, 37)
	for i := range samples {
		samples[i] = rng.Float64() * 1e6
	}
	tr := MustNew("p", 0.7, samples)
	f := func(a, b, c uint16) bool {
		t0 := float64(a) * 0.013
		t1 := t0 + float64(b)*0.017
		t2 := t1 + float64(c)*0.019
		whole := tr.Integrate(t0, t2)
		split := tr.Integrate(t0, t1) + tr.Integrate(t1, t2)
		return approx(whole, split, 1e-6*(1+whole))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAverage(t *testing.T) {
	tr := MustNew("t", 1, []float64{10, 30})
	if got := tr.Average(0, 2); !approx(got, 20, 1e-12) {
		t.Fatalf("Average = %v", got)
	}
	// Empty window falls back to the instantaneous value.
	if got := tr.Average(1.5, 1.5); got != 30 {
		t.Fatalf("empty-window Average = %v", got)
	}
}

func TestUploadFinishInverseOfIntegrate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	samples := make([]float64, 23)
	for i := range samples {
		samples[i] = 1e5 + rng.Float64()*9e5
	}
	tr := MustNew("u", 1.3, samples)
	f := func(a uint16, volScale uint8) bool {
		t0 := float64(a) * 0.11
		vol := (1 + float64(volScale)) * 5e4
		tf, err := tr.UploadFinish(t0, vol)
		if err != nil {
			return false
		}
		got := tr.Integrate(t0, tf)
		return approx(got, vol, 1e-6*vol) && tf >= t0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestUploadFinishAcrossOutage(t *testing.T) {
	// 1 MB at 1 MB/s for 1 s, then a 3 s outage, then 1 MB/s again.
	tr := MustNew("o", 1, []float64{1e6, 0, 0, 0, 1e6})
	tf, err := tr.UploadFinish(0, 1.5e6)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(tf, 4.5, 1e-9) {
		t.Fatalf("UploadFinish through outage = %v, want 4.5", tf)
	}
}

func TestUploadFinishCases(t *testing.T) {
	gap := MustNew("p", 1, []float64{5, 0, 0, 5})
	cases := []struct {
		name            string
		t0, bytes, want float64
	}{
		// bytes too small to move the cumulative volume (5 + 1e-17 == 5)
		// must not land on the end of the positive segment before the gap.
		{"sub-ulp upload in an outage", 2.5, 1e-17, 2.5},
		{"sub-ulp upload in an outage, late clock", 4e6 + 2.5, 1e-17, 4e6 + 2.5},
		{"sub-ulp upload on a boundary", 1, 1e-17, 1},
		{"upload across the outage", 2.5, 5, 4},
		{"upload from a late clock", 4e6 + 0.5, 5, 4e6 + 3.5},
		{"exact cycle volume", 0, 10, 4},
	}
	for _, c := range cases {
		got, err := gap.UploadFinish(c.t0, c.bytes)
		if err != nil || got != c.want {
			t.Errorf("%s: UploadFinish(%v, %v) = %v, %v; want %v", c.name, c.t0, c.bytes, got, err, c.want)
		}
	}
}

func TestUploadFinishZeroTrace(t *testing.T) {
	tr := MustNew("z", 1, []float64{0, 0})
	if _, err := tr.UploadFinish(0, 1); err == nil {
		t.Fatal("upload on all-zero trace should error")
	}
	// Zero bytes finish instantly even on a dead link.
	tf, err := tr.UploadFinish(5, 0)
	if err != nil || tf != 5 {
		t.Fatalf("zero-byte upload: %v, %v", tf, err)
	}
}

func TestUploadFinishManyCycles(t *testing.T) {
	tr := MustNew("c", 1, []float64{100})
	tf, err := tr.UploadFinish(2, 100*1000)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(tf, 1002, 1e-6) {
		t.Fatalf("UploadFinish = %v, want 1002", tf)
	}
}

func TestSlotAndHistory(t *testing.T) {
	tr := MustNew("s", 1, []float64{10, 20, 30, 40})
	// Slot width 2 s: slot 0 = avg(10,20) = 15, slot 1 = avg(30,40) = 35.
	if got := tr.Slot(0, 2); !approx(got, 15, 1e-12) {
		t.Fatalf("Slot(0) = %v", got)
	}
	if got := tr.Slot(1, 2); !approx(got, 35, 1e-12) {
		t.Fatalf("Slot(1) = %v", got)
	}
	// Negative slots wrap cyclically: slot -1 ≡ slot 1.
	if got := tr.Slot(-1, 2); !approx(got, 35, 1e-12) {
		t.Fatalf("Slot(-1) = %v", got)
	}
	h := tr.History(3.5, 2, 2) // t in slot 1
	want := []float64{35, 15, 35}
	for i := range want {
		if !approx(h[i], want[i], 1e-12) {
			t.Fatalf("History = %v, want %v", h, want)
		}
	}
	if len(tr.History(0, 2, 0)) != 1 {
		t.Fatal("History with H=0 should have one entry")
	}
}

func TestSlotPanics(t *testing.T) {
	tr := MustNew("s", 1, []float64{1})
	for name, f := range map[string]func(){
		"zero width": func() { tr.Slot(0, 0) },
		"negative H": func() { tr.History(0, 1, -1) },
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

func TestSummary(t *testing.T) {
	tr := MustNew("sum", 1, []float64{2, 4, 6, 8})
	s := tr.Summary()
	if s.Min != 2 || s.Max != 8 || !approx(s.Mean, 5, 1e-12) {
		t.Fatalf("Summary = %+v", s)
	}
	wantStd := math.Sqrt((9 + 1 + 1 + 9) / 4.0)
	if !approx(s.Std, wantStd, 1e-12) {
		t.Fatalf("Std = %v want %v", s.Std, wantStd)
	}
}

func TestCloneIndependent(t *testing.T) {
	tr := MustNew("c", 1, []float64{1, 2})
	c := tr.Clone()
	c.Samples[0] = 99
	if tr.Samples[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := MustNew("rt", 0.5, []float64{1.5, 2.25, 0, 9.125})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Interval != tr.Interval {
		t.Fatalf("interval %v != %v", back.Interval, tr.Interval)
	}
	for i := range tr.Samples {
		if back.Samples[i] != tr.Samples[i] {
			t.Fatalf("sample %d: %v != %v", i, back.Samples[i], tr.Samples[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":                "",
		"header only":          "time_s,bandwidth_Bps\n",
		"bad time":             "abc,1\nxyz,2\n",
		"bad bandwidth":        "0,one\n1,two\n",
		"non-increasing":       "1,5\n1,6\n",
		"negative bw":          "0,-5\n1,6\n",
		"nan time":             "NaN,5\n1,6\n",
		"inf time":             "0,5\n+Inf,6\n",
		"negative time":        "-1,5\n0,6\n",
		"decreasing later row": "0,5\n1,6\n0.5,7\n",
		"repeated later row":   "0,5\n1,6\n1,7\n",
		"non-uniform spacing":  "0,5\n1,6\n3,7\n",
		"drifting interval":    "0,5\n1,6\n2,7\n3.5,8\n",
	}
	for name, data := range cases {
		if _, err := ReadCSV(name, strings.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Single data row defaults to 1 s interval.
	tr, err := ReadCSV("one", strings.NewReader("0,42\n"))
	if err != nil || tr.Interval != 1 || tr.Samples[0] != 42 {
		t.Fatalf("single-row parse: %v %v", tr, err)
	}
	// Sub-tolerance float jitter in the timestamps must not reject a
	// uniformly sampled export.
	tr, err = ReadCSV("jitter", strings.NewReader("0,1\n0.5,2\n1.0000001,3\n1.5,4\n"))
	if err != nil || tr.Interval != 0.5 || len(tr.Samples) != 4 {
		t.Fatalf("jittered parse: %v %v", tr, err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/trace.csv"
	tr := MustNew("f", 1, []float64{3, 1, 4})
	if err := tr.SaveCSVFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Samples) != 3 || back.Samples[2] != 4 {
		t.Fatalf("loaded %v", back.Samples)
	}
	if _, err := LoadCSVFile(dir + "/missing.csv"); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestDurationAndVolume(t *testing.T) {
	tr := MustNew("d", 2, []float64{5, 10})
	if tr.Duration() != 4 {
		t.Fatalf("Duration = %v", tr.Duration())
	}
	if got := tr.Integrate(0, 4); !approx(got, 30, 1e-12) {
		t.Fatalf("cycle volume = %v", got)
	}
}
