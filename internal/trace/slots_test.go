package trace

import (
	"math"
	"math/rand"
	"testing"
)

// TestSlotTableRowsMatchSlot pins the slot-major table to Slot bit for bit:
// for trace sets with equal and with commensurate periods, every row entry
// equals the trace's own Slot over several periods of negative and positive
// slot indices.
func TestSlotTableRowsMatchSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		h := []float64{0.5, 1, 2, 2.5}[trial%4]
		n := 1 + rng.Intn(6)
		traces := make([]*Trace, n)
		for i := range traces {
			// Durations of 10h·{1, 2, 3, 4, 6} slots, sampled at h/2.
			slots := 10 * []int{1, 2, 3, 4, 6}[rng.Intn(5)]
			tr := randomTrace(rng, 2*slots)
			tr.Interval = h / 2
			traces[i] = tr
		}
		var c SlotCache
		tbl := c.Table(traces, h)
		if tbl == nil {
			t.Fatalf("trial %d: no table for commensurate periods", trial)
		}
		if again := c.Table(traces, h); again != tbl {
			t.Fatalf("trial %d: table rebuilt without a change", trial)
		}
		for j := -3 * tbl.rows; j < 3*tbl.rows; j++ {
			row := tbl.Row(j)
			for i, tr := range traces {
				if got, want := row[i], tr.Slot(j, h); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d: Row(%d)[%d] = %v, Slot = %v", trial, j, i, got, want)
				}
			}
		}
	}
}

// TestSlotTableWidthInvariant builds one table of 23 traces of five
// commensurate periods on 1, 2, 7 and n+3 goroutines: every width gives
// the serial fill's bits, each entry its trace's own Slot.
func TestSlotTableWidthInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, h = 23, 2.0
	traces := make([]*Trace, n)
	for i := range traces {
		tr := randomTrace(rng, 20*[]int{1, 2, 3, 4, 6}[i%5])
		tr.Interval = h / 2
		traces[i] = tr
	}
	for _, width := range []int{1, 2, 7, n + 3} {
		tbl := newSlotTable(traces, h, width)
		if tbl.rows != 120 || len(tbl.vals) != 120*n {
			t.Fatalf("width %d: %d rows, %d values", width, tbl.rows, len(tbl.vals))
		}
		for r := 0; r < tbl.rows; r++ {
			for i, tr := range traces {
				if got, want := tbl.vals[r*n+i], tr.Slot(r, h); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("width %d: row %d, trace %d: %v, want %v", width, r, i, got, want)
				}
			}
		}
	}
	if tbl := newSlotTable(nil, h, 4); tbl.rows != 1 || len(tbl.vals) != 0 {
		t.Fatalf("empty set: %d rows, %d values", tbl.rows, len(tbl.vals))
	}
}

// TestSlotCacheInvalidation checks the cache's identity rule: the table is
// reused while the width and the traces stay the same, rebuilt when a trace
// is replaced or the width changes, and absent for a set without a common
// period.
func TestSlotCacheInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	traces := []*Trace{randomTrace(rng, 40), randomTrace(rng, 40)}
	traces[0].Interval, traces[1].Interval = 1, 1
	var c SlotCache
	first := c.Table(traces, 10)
	if first == nil || c.Table(traces, 10) != first {
		t.Fatal("width 10 not cached")
	}
	traces[1] = MustNew("new", 1, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	second := c.Table(traces, 10)
	if second == first {
		t.Fatal("table not rebuilt after a trace was replaced")
	}
	if got, want := second.Row(3)[1], traces[1].Slot(3, 10); got != want {
		t.Fatalf("rebuilt row reads %v, want %v", got, want)
	}
	wide := c.Table(traces, 20)
	if wide == nil || wide == second || c.Table(traces, 20) != wide {
		t.Fatal("width 20 not built and cached after width 10")
	}
	if got, want := wide.Row(-1)[0], traces[0].Slot(-1, 20); got != want {
		t.Fatalf("width-20 row reads %v, want %v", got, want)
	}
	if again := c.Table(traces, 10); again == nil || again == second || again.Row(3)[1] != second.Row(3)[1] {
		t.Fatal("switching back to width 10 did not rebuild the same rows")
	}
	if c.Table(traces, 7) != nil || c.Table(traces, 0) != nil || c.Table(traces, math.NaN()) != nil {
		t.Fatal("a width without a common period has a table")
	}
}
