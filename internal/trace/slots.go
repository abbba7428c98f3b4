package trace

import (
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/par"
)

// This file holds the slot averages behind the paper's state s_k: Slot and
// its period, and the slot-major table that env.BuildStateInto reads.

// maxSlotPeriod bounds the slot period: a width whose slot pattern repeats
// only after more than maxSlotPeriod slots is treated as aperiodic, and
// Slot computes slot j from its own start time.
const maxSlotPeriod = 1 << 20

// maxSlotCells bounds a SlotTable (rows × traces); a trace set whose common
// period would need more cells has no table.
const maxSlotCells = 1 << 24

// slotPeriod returns q when the trace's slot pattern at width h repeats
// every q = d/h slots for an integer q in [1, maxSlotPeriod] (to a relative
// 1e-9 of the cycle), and 0 otherwise.
func (tr *Trace) slotPeriod(h float64) int {
	d := tr.Duration()
	q := math.Round(d / h)
	if q >= 1 && q <= maxSlotPeriod && math.Abs(q*h-d) <= 1e-9*d {
		return int(q)
	}
	return 0
}

// Slot returns the average bandwidth in the j-th slot of width h seconds,
// i.e. over [j·h, (j+1)·h), replaying cyclically. Negative j wraps around,
// matching the paper's state construction B_i(⌊t/h⌋ - k) for history slots
// that precede the randomly chosen start time.
//
// When the slot pattern repeats every q slots (slotPeriod), slot j is
// computed as slot j mod q, so every slot of one residue class has the same
// bits. The cost is O(1) via the prefix sums; a state over many traces reads
// a SlotTable instead.
func (tr *Trace) Slot(j int, h float64) float64 {
	if h <= 0 {
		panic("trace: non-positive slot width")
	}
	if q := tr.slotPeriod(h); q > 0 {
		j = wrap(j, q)
	}
	return tr.slotDirect(j, h)
}

// wrap returns j mod q in [0, q) for q > 0.
func wrap(j, q int) int {
	j %= q
	if j < 0 {
		j += q
	}
	return j
}

// slotDirect computes the average of slot j straight from the prefix index:
// the defining formula of Slot, without the period reduction.
func (tr *Trace) slotDirect(j int, h float64) float64 {
	d := tr.Duration()
	start := mod(float64(j)*h, d)
	if start < 0 {
		start += d
	}
	return tr.Average(start, start+h)
}

// SlotTable is the slot-major table of a trace set's slot averages at one
// width h. Row r holds every trace's slot-r average, contiguous and in trace
// order, so the H+1 slots of a state are H+1 sequential row reads. The rows
// span the common period Q = lcm of the traces' slot periods: slot j maps to
// row j mod Q and, for each trace i of period q_i, holds Slot(j, h) =
// slot (j mod q_i), the same bits Slot returns.
type SlotTable struct {
	width float64
	// traces is the set the table was built from, compared by identity to
	// detect a replaced trace.
	traces []*Trace
	// rows is Q, or 0 when the set has no common period within
	// maxSlotCells (the table then records only that fact).
	rows int
	vals []float64 // rows × len(traces)
}

// Row returns every trace's average in slot j (any integer), in trace order.
// The slice aliases the table and must not be modified.
func (t *SlotTable) Row(j int) []float64 {
	n := len(t.traces)
	r := wrap(j, t.rows) * n
	return t.vals[r : r+n : r+n]
}

// newSlotTable builds the table of traces at width h. Its columns, one per
// trace, are cut into min(width, n) contiguous blocks, since adjacent
// columns share cache lines, and each block is one job of the pool. Each
// column is written by one job, so the table has the same bits at any
// width.
func newSlotTable(traces []*Trace, h float64, width int) *SlotTable {
	t := &SlotTable{width: h, traces: append([]*Trace(nil), traces...)}
	n := len(traces)
	periods := make([]int, n)
	rows := 1
	for i, tr := range traces {
		q := tr.slotPeriod(h)
		if q == 0 {
			return t
		}
		periods[i] = q
		// rows·n ≤ maxSlotCells, checked without overflowing a 32-bit int.
		l := rows / gcd(rows, q)
		if l > maxSlotCells/q || l*q > maxSlotCells/n {
			return t
		}
		rows = l * q
	}
	vals := make([]float64, rows*n)
	w := max(min(width, n), 1)
	_ = par.Run(w, w, func(b int) error { // a block cannot fail
		for i := b * n / w; i < (b+1)*n/w; i++ {
			tr, q := traces[i], periods[i]
			for r := 0; r < q; r++ {
				v := tr.slotDirect(r, h)
				for k := r; k < rows; k += q {
					vals[k*n+i] = v
				}
			}
		}
		return nil
	})
	t.rows, t.vals = rows, vals
	return t
}

// gcd returns the greatest common divisor of a, b > 0.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// SlotCache holds the SlotTable of one owner's trace set (fl.System keeps
// one beside its Traces). The table is built on first use and rebuilt when
// the width changes or any trace of the set has been replaced since. It is
// swapped in atomically, so concurrent readers are safe; two goroutines
// that miss together may both build, and either table is correct. The zero
// value is ready to use. A SlotCache must not be copied after first use.
type SlotCache struct {
	table atomic.Pointer[SlotTable]
}

// Table returns the slot-major table of traces at width h, or nil when the
// traces have no common slot period (or h is not positive), in which case
// callers read each trace's Slot.
func (c *SlotCache) Table(traces []*Trace, h float64) *SlotTable {
	if !(h > 0) {
		return nil
	}
	t := c.table.Load()
	if t == nil || !t.builtFrom(traces, h) {
		t = newSlotTable(traces, h, runtime.GOMAXPROCS(0))
		c.table.Store(t)
	}
	if t.rows == 0 {
		return nil
	}
	return t
}

// builtFrom reports whether t is the table of exactly traces at width h.
func (t *SlotTable) builtFrom(traces []*Trace, h float64) bool {
	if t.width != h || len(t.traces) != len(traces) {
		return false
	}
	for i, tr := range traces {
		if t.traces[i] != tr {
			return false
		}
	}
	return true
}
