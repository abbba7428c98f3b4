//go:build !race

package trace

import "testing"

// Steady-state allocation regression tests: once a trace's index is warm,
// the query API on the simulation hot path must not allocate (DESIGN.md
// §10). Guarded from -race builds, whose instrumentation allocates.

func TestAllocsIntegrate(t *testing.T) {
	tr := benchTrace(9)
	tr.Integrate(0, 10) // warm the index
	if n := testing.AllocsPerRun(100, func() {
		tr.Integrate(123.4, 567.8)
	}); n != 0 {
		t.Fatalf("Integrate allocates %v per run in steady state", n)
	}
}

func TestAllocsUploadFinish(t *testing.T) {
	tr := benchTrace(9)
	vol := tr.Integrate(0, tr.Duration()) * 12.5
	if _, err := tr.UploadFinish(0, vol); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := tr.UploadFinish(321.7, vol); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("UploadFinish allocates %v per run in steady state", n)
	}
}

func TestAllocsHistoryInto(t *testing.T) {
	tr := benchTrace(9)
	buf := tr.HistoryInto(nil, 100, 10, 5) // warm index and buffer
	if n := testing.AllocsPerRun(100, func() {
		buf = tr.HistoryInto(buf, 731.3, 10, 5)
	}); n != 0 {
		t.Fatalf("HistoryInto allocates %v per run in steady state", n)
	}
}

func TestAllocsSlot(t *testing.T) {
	tr := benchTrace(9)
	tr.Slot(0, 10) // warm the index
	if n := testing.AllocsPerRun(100, func() {
		tr.Slot(-17, 10)
	}); n != 0 {
		t.Fatalf("Slot allocates %v per run in steady state", n)
	}
}
