package bandwidth

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/trace"
)

// serialSet is the reference for generateSet: one Generate call per
// device, in index order, on the calling goroutine.
func serialSet(profiles []*Profile, n int, nameFmt string, durationSec float64, seed int64) ([]*trace.Trace, error) {
	out := make([]*trace.Trace, n)
	for i := range out {
		p := profiles[i%len(profiles)]
		tr, err := p.Generate(fmt.Sprintf(nameFmt, p.Name, i), durationSec, seed+int64(i)*10007)
		if err != nil {
			return nil, err
		}
		out[i] = tr
	}
	return out, nil
}

func TestGenerateSetWidthInvariant(t *testing.T) {
	const n = 23
	want, err := serialSet(WalkingProfiles(), n, "%s-dev%02d", 900, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 2, 7, n + 3} {
		got, err := generateSet(WalkingProfiles(), n, "%s-dev%02d", 900, 9, width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if len(got) != n {
			t.Fatalf("width %d: %d traces, want %d", width, len(got), n)
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Interval != w.Interval || len(g.Samples) != len(w.Samples) {
				t.Fatalf("width %d, trace %d: %q/%v/%d, want %q/%v/%d", width, i,
					g.Name, g.Interval, len(g.Samples), w.Name, w.Interval, len(w.Samples))
			}
			for k := range w.Samples {
				if math.Float64bits(g.Samples[k]) != math.Float64bits(w.Samples[k]) {
					t.Fatalf("width %d, trace %d, sample %d: %v, want %v", width, i, k, g.Samples[k], w.Samples[k])
				}
			}
		}
	}
}

func TestGenerateSetLowestError(t *testing.T) {
	profiles := WalkingProfiles()
	// Profile 2 validates but generates NaN samples, so trace.New rejects
	// each of its traces with an error that names the trace; profile 4
	// fails validation. Traces 2, 4, 7, 9, … fail, and the serial loop
	// stops at trace 2.
	for i := range profiles[2].Regimes {
		profiles[2].Regimes[i].Mean = math.NaN()
	}
	profiles[4].AR1 = 1
	const n = 40
	_, want := serialSet(profiles, n, "%s-dev%02d", 300, 5)
	if want == nil || !strings.Contains(want.Error(), `"walking-4g-3-dev02"`) {
		t.Fatalf("serial loop error %v, want trace 2's", want)
	}
	for _, width := range []int{1, 2, 7, n + 3} {
		got, err := generateSet(profiles, n, "%s-dev%02d", 300, 5, width)
		if got != nil || err == nil || err.Error() != want.Error() {
			t.Errorf("width %d: (%v, %v), want (nil, %v)", width, got, err, want)
		}
	}
}

func TestNoiseScaleMatchesMathMax(t *testing.T) {
	in := []float64{
		math.NaN(), -math.NaN(), math.Float64frombits(0x7ff0000000000002), math.Float64frombits(0xfff8000000000123),
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1,
		math.Nextafter(1, 0), math.Nextafter(1, 2), 5e-324, -5e-324,
		math.MaxFloat64, -math.MaxFloat64, 0.5, 1e6,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		in = append(in, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(41)-20)))
	}
	for _, x := range in {
		if got, want := noiseScale(x), math.Max(x, 1); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("noiseScale(%v [%#x]) = %v [%#x], math.Max gives %v [%#x]",
				x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// BenchmarkWalkingSet generates a 256-device walking set of 4,000-s traces
// at GOMAXPROCS width; at -cpu 1 its ns/trace is one Generate call plus
// the trace's prefix index.
func BenchmarkWalkingSet(b *testing.B) {
	const n = 256
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := WalkingSet(n, "%s-dev%02d", 4000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/trace")
}
