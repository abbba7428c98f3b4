package guard

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// shiftAudit is the reference model of the audit's retained window: a
// plain slice that evicts its oldest record by shifting the rest down.
type shiftAudit struct {
	cap            int
	recs           []Decision
	total, dropped int
	served, events map[string]int
}

func (m *shiftAudit) add(d Decision) {
	m.total++
	m.served[d.Layer]++
	if len(m.recs) == m.cap {
		copy(m.recs, m.recs[1:])
		m.recs = m.recs[:len(m.recs)-1]
		m.dropped++
	}
	m.recs = append(m.recs, d)
}

func (m *shiftAudit) lines() []string {
	out := make([]string, len(m.recs))
	for i := range m.recs {
		out[i] = m.recs[i].Line()
	}
	return out
}

// cloneDecision deep-copies a record, so the audit and the model never
// share an Events or Plan array.
func cloneDecision(d Decision) Decision {
	d.Events = append([]string(nil), d.Events...)
	if d.Plan != nil {
		d.Plan = append([]float64(nil), d.Plan...)
	}
	return d
}

// ringDecision is the i-th test record: some carry events (a violation and
// the trip it causes), some a plan.
func ringDecision(a *Audit, m *shiftAudit, i int) Decision {
	d := Decision{Iter: i, Clock: 10 * float64(i), Layer: []string{"drl", "heuristic", "maxfreq"}[i%3],
		Score: math.NaN(), Cost: math.NaN()}
	if i%2 == 1 {
		d.Score = 0.25 * float64(i)
	}
	if i%3 == 1 {
		for _, ev := range []string{fmt.Sprintf("drl:clamp=%d", i), "drl:trip"} {
			a.note(&d, ev)
			m.events[ev]++
		}
	}
	if i%4 == 2 {
		d.Plan = []float64{1e9 + float64(i), 2e9}
	}
	return d
}

// checkAgainstModel compares every reader of the audit with the model.
func checkAgainstModel(t *testing.T, a *Audit, m *shiftAudit) {
	t.Helper()
	if a.Len() != len(m.recs) || a.Total() != m.total || a.Dropped() != m.dropped {
		t.Fatalf("len/total/dropped = %d/%d/%d, model %d/%d/%d",
			a.Len(), a.Total(), a.Dropped(), len(m.recs), m.total, m.dropped)
	}
	if !reflect.DeepEqual(a.ServedCounts(), m.served) || !reflect.DeepEqual(a.EventCounts(), m.events) {
		t.Fatalf("counters served %v events %v, model %v %v", a.ServedCounts(), a.EventCounts(), m.served, m.events)
	}
	recs := a.Records()
	if len(recs) != len(m.recs) {
		t.Fatalf("%d records, model %d", len(recs), len(m.recs))
	}
	for i := range recs {
		if !decisionsEqual(recs[i], m.recs[i]) {
			t.Fatalf("record %d = %+v, model %+v", i, recs[i], m.recs[i])
		}
	}
	lines := m.lines()
	if got := a.Lines(); !reflect.DeepEqual(got, lines) {
		t.Fatalf("lines %q, model %q", got, lines)
	}
	last, ok := a.Last()
	if ok != (len(m.recs) > 0) || ok && !decisionsEqual(last, m.recs[len(m.recs)-1]) {
		t.Fatalf("Last = %+v (%v), model %v", last, ok, m.recs)
	}
	// The model's window in a cap it never reaches is the reference for
	// the window-wide trip attribution.
	flat := newAudit(len(m.recs) + 1)
	for _, d := range m.recs {
		flat.add(cloneDecision(d))
	}
	if got, want := a.TripReasons(), flat.TripReasons(); !reflect.DeepEqual(got, want) {
		t.Fatalf("TripReasons %v, model %v", got, want)
	}
	var got, want strings.Builder
	if err := a.Render(&got); err != nil {
		t.Fatal(err)
	}
	if err := a.Summary().Render(&want); err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		fmt.Fprintln(&want, line)
	}
	if got.String() != want.String() {
		t.Fatalf("rendered audit:\n%s\nmodel:\n%s", got.String(), want.String())
	}
}

// TestAuditRingMatchesShiftModel drives the ring past its cap three times
// over and checks every reader against a shifting slice after each step,
// including Observe-style writes into the newest record once wrapped.
func TestAuditRingMatchesShiftModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			a := newAudit(capacity)
			m := &shiftAudit{cap: capacity, served: map[string]int{}, events: map[string]int{}}
			checkAgainstModel(t, a, m)
			for i := 0; i <= 3*capacity; i++ {
				d := ringDecision(a, m, i)
				full := a.Len() == capacity
				// Addresses of the records that stay retained: once the ring
				// is full, an add must move none of them.
				var before []*Decision
				for j := 1; full && j < a.Len(); j++ {
					before = append(before, a.at(j))
				}
				m.add(cloneDecision(d))
				a.add(d)
				for j, p := range before {
					if a.at(j) != p || !decisionsEqual(*p, m.recs[j]) {
						t.Fatalf("add %d moved retained record %d", i, j)
					}
				}
				checkAgainstModel(t, a, m)
				if i%2 == 0 {
					// What Observe does: the realized cost, then a verdict
					// event, both on the newest record.
					cost, ev := 40+float64(i), "drl:cost-regress"
					if i%4 == 0 {
						ev = "drl:trip"
					}
					a.last().Cost = cost
					a.note(a.last(), ev)
					newest := &m.recs[len(m.recs)-1]
					newest.Cost = cost
					newest.Events = append(newest.Events, ev)
					m.events[ev]++
					checkAgainstModel(t, a, m)
				}
			}
		})
	}
}
