package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file pins the exact FMA remainder (mod) and the galloping
// upload-finish search to the solve they replaced, bit for bit: the same
// index arithmetic with time wrapped by math.Mod and the finishing segment
// found by a binary search over the whole prefix array.

// refUploadFinish is that replaced solve. small reports the one input class
// where UploadFinish deliberately differs: bytes too small to move the
// cumulative volume at t0, where UploadFinish returns t0 and the replaced
// solve could land on an earlier segment's end.
func refUploadFinish(tr *Trace, t0, bytes float64) (tf float64, small bool, err error) {
	if math.IsNaN(t0) || math.IsInf(t0, 0) {
		return 0, false, fmt.Errorf("upload start time %v is not finite", t0)
	}
	if bytes <= 0 {
		return t0, false, nil
	}
	if t0 < 0 {
		t0 = 0
	}
	ix := tr.index()
	if ix.cycleVol <= 0 {
		return 0, false, fmt.Errorf("zero bandwidth everywhere")
	}
	n := len(tr.Samples)
	d := tr.Duration()
	u0 := math.Mod(t0, d)
	i0 := int(u0 / tr.Interval)
	if i0 >= n {
		i0 = n - 1
	}
	start := ix.cum(tr, i0, u0)
	target := start + bytes
	cycles := math.Floor(target / ix.cycleVol)
	rem := target - cycles*ix.cycleVol
	if rem <= 0 {
		cycles--
		rem = ix.cycleVol
	}
	u := d
	if i := sort.Search(n, func(i int) bool { return ix.prefix[i+1] >= rem }); i < n {
		u = float64(i)*tr.Interval + (rem-ix.prefix[i])/tr.Samples[i]
	}
	return (t0 - u0) + cycles*d + u, target == start, nil
}

// checkUploadFinish fails t unless UploadFinish(t0, bytes) has the
// replaced solve's bits and error, or is t0 on the small-upload inputs.
func checkUploadFinish(t *testing.T, tr *Trace, t0, bytes float64) {
	t.Helper()
	got, err := tr.UploadFinish(t0, bytes)
	want, small, refErr := refUploadFinish(tr, t0, bytes)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("UploadFinish(%v, %v) on %d samples at %v s: error %v, reference error %v",
			t0, bytes, len(tr.Samples), tr.Interval, err, refErr)
	}
	if small {
		want = t0
	}
	if err == nil && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("UploadFinish(%v, %v) on %d samples at %v s = %v, want %v (small upload %v)",
			t0, bytes, len(tr.Samples), tr.Interval, got, want, small)
	}
}

func TestModMatchesMathMod(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	// logUniform draws a value with a random mantissa spread evenly over
	// the decades [10^lo, 10^hi].
	logUniform := func(lo, hi float64) float64 {
		return math.Pow(10, lo+rng.Float64()*(hi-lo))
	}
	check := func(tv, d float64) {
		if got, want := mod(tv, d), math.Mod(tv, d); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("mod(%v, %v) = %v (%#x), math.Mod %v (%#x)",
				tv, d, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	pairs := 1_000_000
	if testing.Short() {
		pairs = 100_000
	}
	for p := 0; p < pairs; p++ {
		// Trace durations (sample count × interval) and arbitrary periods.
		var d float64
		if rng.Intn(2) == 0 {
			d = float64(1+rng.Intn(5000)) * []float64{0.25, 1, 1.5, 10, 0.1, 1.0 / 3}[rng.Intn(6)]
		} else {
			d = logUniform(-6, 6)
		}
		var tv float64
		switch p % 8 {
		case 0: // inside the first cycle
			tv = rng.Float64() * d
		case 1: // engine clocks up to 1e9 s
			tv = logUniform(-3, 9)
		case 2, 3: // a rounded multiple of d and its neighbours
			tv = float64(1+rng.Intn(1<<20)) * d
			tv = []float64{tv, math.Nextafter(tv, 0), math.Nextafter(tv, math.Inf(1))}[rng.Intn(3)]
		case 4: // quotients at and past 2^52, where mod defers to math.Mod
			tv = d * math.Ldexp(1+rng.Float64(), 51+rng.Intn(12))
		case 5: // signed zeros, exact d, and d's neighbours
			tv = []float64{0, math.Copysign(0, -1), d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1))}[rng.Intn(5)]
		case 6: // negative clocks
			tv = -logUniform(-3, 9)
		default: // a whole number of cycles plus an offset within one
			tv = float64(rng.Intn(1<<30))*d + rng.Float64()*d
		}
		check(tv, d)
	}
	for _, tv := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		check(tv, 4000)
	}
}

func TestUploadFinishMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	traces, queries := 400, 2500
	if testing.Short() {
		traces = 40
	}
	for k := 0; k < traces; k++ {
		// randomTrace's rates and outage runs at the simulator's intervals.
		interval := []float64{0.25, 1, 1.5, 10}[rng.Intn(4)]
		tr := MustNew("exact", interval, randomTrace(rng, 1+rng.Intn(300)).Samples)
		n := len(tr.Samples)
		d := tr.Duration()
		vol := tr.cycleVolume()
		for q := 0; q < queries; q++ {
			var t0 float64
			switch q % 6 {
			case 0: // a sample boundary in some cycle
				t0 = float64(rng.Intn(int(1e7/d)+1))*d + float64(rng.Intn(n+1))*tr.Interval
			case 1: // a whole number of cycles
				t0 = float64(rng.Intn(int(1e7/d)+1)) * d
			case 2: // anywhere up to 1e7 s
				t0 = rng.Float64() * 1e7
			case 3: // within the first few cycles
				t0 = rng.Float64() * 3 * d
			case 4: // a neighbour of a boundary
				t0 = float64(rng.Intn(int(1e6/d)+1))*d + float64(rng.Intn(n+1))*tr.Interval
				t0 = []float64{math.Nextafter(t0, 0), math.Nextafter(t0, math.Inf(1))}[rng.Intn(2)]
			default: // before the clock starts
				t0 = -rng.Float64() * d
			}
			var bytes float64
			switch q % 5 {
			case 0: // a fraction of one sample's volume
				bytes = rng.Float64() * 5e5 * tr.Interval
			case 1: // up to 30 cycles
				bytes = rng.Float64() * 30 * vol
			case 2: // an exact multiple of the cycle volume
				bytes = float64(1+rng.Intn(30)) * vol
			case 3: // too small to move the cumulative volume
				bytes = math.Ldexp(1, -60-rng.Intn(20)) * vol
			default: // up to one cycle
				bytes = rng.Float64() * vol
			}
			checkUploadFinish(t, tr, t0, bytes)
		}
	}
}
