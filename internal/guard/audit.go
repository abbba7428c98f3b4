package guard

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/report"
)

// Decision is the structured audit record of one guarded scheduling
// decision: which layer ultimately served it, the OOD drift score the
// input layer measured, the realized iteration cost once observed, and
// every guard event that fired along the way (violations, breaker
// transitions, gate open/close), in firing order.
type Decision struct {
	// Iter is the 0-based decision index within the guard's lifetime.
	Iter int
	// Clock is the wall-clock time t^k the decision was made at.
	Clock float64
	// Layer names the scheduler that served the decision ("drl",
	// "heuristic", "maxfreq", …).
	Layer string
	// Score is the windowed OOD drift score (NaN when the OOD layer is
	// disabled or the state was not scorable).
	Score float64
	// Cost is the realized iteration cost fed back through Observe (NaN
	// until observed).
	Cost float64
	// Events lists guard events in firing order, e.g. "drl:trip",
	// "ood:open", "drl:clamp=2". Empty for a clean actor-served decision.
	Events []string
	// Plan is the served frequency plan, recorded only when
	// Config.RecordPlans is set (the online continual-learning loop replays
	// it as the action of the logged transition). Nil keeps the legacy
	// 5-field line format.
	Plan []float64
}

// Line renders the decision as one canonical audit line. The format is
// deterministic byte-for-byte: floats use strconv's shortest round-trip
// form, NaN renders as "-", and events keep firing order. Golden tests
// compare these lines across worker counts. A recorded plan switches to
// the extended 7-field form (adding the decision clock and the plan) that
// the online replay loop parses back; decisions without one keep the
// historical 5-field encoding byte-for-byte.
func (d *Decision) Line() string {
	ev := "-"
	if len(d.Events) > 0 {
		ev = strings.Join(d.Events, ",")
	}
	if len(d.Plan) == 0 {
		return fmt.Sprintf("k=%d layer=%s score=%s cost=%s events=%s",
			d.Iter, d.Layer, auditFloat(d.Score), auditFloat(d.Cost), ev)
	}
	plan := make([]string, len(d.Plan))
	for i, v := range d.Plan {
		plan[i] = auditFloat(v)
	}
	return fmt.Sprintf("k=%d t=%s layer=%s score=%s cost=%s events=%s plan=%s",
		d.Iter, auditFloat(d.Clock), d.Layer, auditFloat(d.Score), auditFloat(d.Cost),
		ev, strings.Join(plan, ","))
}

// auditFloat formats a float for audit lines: shortest exact form, with
// NaN (the "not available" marker) as "-".
func auditFloat(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Audit accumulates the guard's decision records plus exact running
// counters. Records are capped (oldest dropped first) so a long-lived
// guard cannot grow without bound; the counters always cover the full
// lifetime regardless of the cap. The retained records sit in a fixed
// ring: once it is full, an add overwrites the oldest record in place
// instead of shifting the rest, so a decision costs the same at any
// uptime; every reader returns the records oldest first.
type Audit struct {
	cap     int
	recs    []Decision // ring storage, at most cap records
	head    int        // slot of the oldest record (0 until the ring is full)
	dropped int

	total  int            // decisions made
	served map[string]int // decisions served, by layer name
	events map[string]int // events fired, by event string
}

func newAudit(capacity int) *Audit {
	return &Audit{
		cap:    capacity,
		served: make(map[string]int),
		events: make(map[string]int),
	}
}

// add appends a finished decision record; once the cap is reached it
// overwrites the oldest record and advances the head past it.
func (a *Audit) add(d Decision) {
	a.total++
	a.served[d.Layer]++
	if len(a.recs) < a.cap {
		a.recs = append(a.recs, d)
		return
	}
	a.recs[a.head] = d
	if a.head++; a.head == len(a.recs) {
		a.head = 0
	}
	a.dropped++
}

// at returns the i-th retained record, oldest first (0 <= i < Len).
func (a *Audit) at(i int) *Decision {
	if i += a.head; i >= len(a.recs) {
		i -= len(a.recs)
	}
	return &a.recs[i]
}

// last returns the most recent record for post-serve mutation (Observe
// fills in the realized cost), or nil before the first decision.
func (a *Audit) last() *Decision {
	if len(a.recs) == 0 {
		return nil
	}
	return a.at(len(a.recs) - 1)
}

// note records an event both on the decision and in the lifetime counter.
func (a *Audit) note(d *Decision, ev string) {
	d.Events = append(d.Events, ev)
	a.events[ev]++
}

// Len returns the number of retained decision records.
func (a *Audit) Len() int { return len(a.recs) }

// Total returns the lifetime decision count (including evicted records).
func (a *Audit) Total() int { return a.total }

// Dropped returns how many old records the cap evicted.
func (a *Audit) Dropped() int { return a.dropped }

// Last returns a copy of the most recent decision record, or false before
// the first decision. Callers that serialize access to the guard (one
// decision stream per guard) use it to observe which layer served without
// copying the whole record set.
func (a *Audit) Last() (Decision, bool) {
	if len(a.recs) == 0 {
		return Decision{}, false
	}
	d := *a.last()
	d.Events = append([]string(nil), d.Events...)
	if d.Plan != nil {
		d.Plan = append([]float64(nil), d.Plan...)
	}
	return d, true
}

// Records returns a copy of the retained decision records in order.
func (a *Audit) Records() []Decision {
	out := make([]Decision, len(a.recs))
	for i := range out {
		out[i] = *a.at(i)
		out[i].Events = append([]string(nil), out[i].Events...)
		if out[i].Plan != nil {
			out[i].Plan = append([]float64(nil), out[i].Plan...)
		}
	}
	return out
}

// Lines renders every retained record as canonical audit lines.
func (a *Audit) Lines() []string {
	out := make([]string, len(a.recs))
	for i := range out {
		out[i] = a.at(i).Line()
	}
	return out
}

// ServedCounts returns the lifetime per-layer serve counts.
func (a *Audit) ServedCounts() map[string]int {
	out := make(map[string]int, len(a.served))
	for k, v := range a.served {
		out[k] = v
	}
	return out
}

// EventCounts returns the lifetime per-event counts.
func (a *Audit) EventCounts() map[string]int {
	out := make(map[string]int, len(a.events))
	for k, v := range a.events {
		out[k] = v
	}
	return out
}

// TripReasons correlates breaker trips with their causes across the
// retained records (the capped window, not the full lifetime): every
// "<layer>:trip" event is attributed to the event noted immediately
// before it in the same decision — the pipeline always notes the
// violation (latency, error, plan-cost, clamp, cost-regress,
// non-finite input/action, …) right before folding it into the breaker.
// Parameterized causes are normalized by stripping everything from "="
// ("drl:clamp=2" → "drl:clamp"); a trip with no attributable cause
// counts under "unknown".
func (a *Audit) TripReasons() map[string]int {
	out := make(map[string]int)
	for i := range a.recs {
		evs := a.at(i).Events
		for j, ev := range evs {
			if !strings.HasSuffix(ev, ":trip") {
				continue
			}
			cause := "unknown"
			if j > 0 && !breakerTransition(evs[j-1]) {
				cause = evs[j-1]
				if k := strings.IndexByte(cause, '='); k >= 0 {
					cause = cause[:k]
				}
			}
			out[cause]++
		}
	}
	return out
}

// breakerTransition reports whether an event is a state transition rather
// than a violation cause.
func breakerTransition(ev string) bool {
	return strings.HasSuffix(ev, ":trip") || strings.HasSuffix(ev, ":reopen") ||
		strings.HasSuffix(ev, ":close") || strings.HasSuffix(ev, ":open")
}

// TripSummary renders TripReasons as a report table (one row per cause,
// sorted), with the total trip count in the title context. Nil when no
// retained record holds a trip, so callers can skip the section.
func (a *Audit) TripSummary() *report.Table {
	reasons := a.TripReasons()
	if len(reasons) == 0 {
		return nil
	}
	total := 0
	for _, v := range reasons {
		total += v
	}
	t := report.NewTable("guard trips by cause", "cause", "trips", "share")
	keys := make([]string, 0, len(reasons))
	for k := range reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.AddRowf(k, reasons[k], fmt.Sprintf("%.1f%%", 100*float64(reasons[k])/float64(total)))
	}
	return t
}

// Summary renders the lifetime counters as a report table: one row per
// serving layer, then one per event, in sorted order so the rendering is
// deterministic.
func (a *Audit) Summary() *report.Table {
	t := report.NewTable("guard audit", "kind", "name", "count", "share")
	layers := make([]string, 0, len(a.served))
	for k := range a.served {
		layers = append(layers, k)
	}
	sort.Strings(layers)
	for _, k := range layers {
		share := "-"
		if a.total > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(a.served[k])/float64(a.total))
		}
		t.AddRowf("served", k, a.served[k], share)
	}
	events := make([]string, 0, len(a.events))
	for k := range a.events {
		events = append(events, k)
	}
	sort.Strings(events)
	for _, k := range events {
		t.AddRowf("event", k, a.events[k], "-")
	}
	return t
}

// Render writes the summary table followed by the retained audit lines.
func (a *Audit) Render(w io.Writer) error {
	if err := a.Summary().Render(w); err != nil {
		return err
	}
	for _, line := range a.Lines() {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
