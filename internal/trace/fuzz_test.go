package trace

import (
	"math"
	"strings"
	"testing"
)

// FuzzReadCSV drives the CSV loader with arbitrary input. Invariants: it
// never panics; every accepted trace satisfies the Trace contract —
// positive finite interval and non-empty, finite, non-negative samples.
func FuzzReadCSV(f *testing.F) {
	f.Add("time_s,bandwidth_Bps\n0,1e6\n1,2e6\n2,1.5e6\n")
	f.Add("0,5\n0.5,6\n1.0,7\n")
	f.Add("")
	f.Add("time_s,bandwidth_Bps\n")
	f.Add("a,b,c\n")
	f.Add("0,NaN\n1,2\n")
	f.Add("0,1\n1,2\n1,3\n")
	f.Add("0,1\n2,2\n3,3\n")
	f.Add("-1,5\n0,6\n")
	f.Add("0,1e309\n1,2\n")
	f.Add("time_s,bandwidth_Bps\n0,-3\n1,4\n")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadCSV("fuzz", strings.NewReader(data))
		if err != nil {
			return
		}
		if tr == nil {
			t.Fatal("nil trace with nil error")
		}
		if !(tr.Interval > 0) || math.IsInf(tr.Interval, 0) {
			t.Fatalf("accepted interval %v", tr.Interval)
		}
		if len(tr.Samples) == 0 {
			t.Fatal("accepted empty sample set")
		}
		for i, s := range tr.Samples {
			if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
				t.Fatalf("accepted invalid sample %d = %v", i, s)
			}
		}
	})
}

// FuzzUploadFinish checks the upload-finish solve against the binary-search
// solve it replaced (refUploadFinish in exact_test.go): identical bits and
// errors, except that an upload too small to move the cumulative volume
// finishes at t0. Each byte of raw is one sample: an outage below 64,
// otherwise byte·10^4 B/s.
func FuzzUploadFinish(f *testing.F) {
	f.Add([]byte{80, 0, 0, 80}, 1.0, 2.5, 1e-17)
	f.Add([]byte{80, 0, 0, 80}, 1.0, 4e6+2.5, 1e-17)
	f.Add([]byte{200, 90, 0, 0, 0, 255, 70, 10, 130}, 1.5, 7e5, 5e5)
	f.Add([]byte{0, 0, 100, 0, 100}, 0.25, 1.25, 1e7)
	f.Add([]byte{100, 150, 200, 250}, 10.0, 1e9+3.7, 3e7)
	f.Add([]byte{0, 0}, 1.0, 5.0, 1.0)
	f.Fuzz(func(t *testing.T, raw []byte, interval, t0, bytes float64) {
		if len(raw) == 0 || len(raw) > 1<<12 {
			return
		}
		samples := make([]float64, len(raw))
		for i, b := range raw {
			if b >= 64 {
				samples[i] = float64(b) * 1e4
			}
		}
		tr, err := New("fuzz", interval, samples)
		if err != nil {
			return
		}
		checkUploadFinish(t, tr, t0, bytes)
	})
}
