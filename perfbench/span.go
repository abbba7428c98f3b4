package main

import (
	"time"

	"repro/perfbench/stat"
)

// span is one timed call into a layer. Spans stay in memory until the run
// ends; parent is the index of the span that caused this one, or -1.
type span struct {
	name       int
	parent     int
	start, end time.Duration
}

// tracer records spans around the benchmark's calls into each module.
type tracer struct {
	origin time.Time
	names  []string
	ids    map[string]int
	spans  []span
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), ids: map[string]int{}, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, parent int) int {
	id, ok := t.ids[name]
	if !ok {
		id = len(t.names)
		t.ids[name] = id
		t.names = append(t.names, name)
	}
	t.spans = append(t.spans, span{name: id, parent: parent, start: time.Since(t.origin)})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) { t.spans[i].end = time.Since(t.origin) }

// spanStats aggregates every span of one name.
type spanStats struct {
	n           int
	total, self time.Duration
}

// meanUS is the mean span duration in microseconds (0 with no spans).
func (s spanStats) meanUS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / 1e3
}

// stats aggregates the spans by name, with each span's self time (its
// duration minus what its children cover), and returns the total duration
// of the root spans.
func (t *tracer) stats() (map[string]spanStats, time.Duration) {
	children := make(map[int][]stat.Interval)
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], stat.Interval{Start: s.start, End: s.end})
		}
	}
	out := make(map[string]spanStats)
	var roots time.Duration
	for i, s := range t.spans {
		iv := stat.Interval{Start: s.start, End: s.end}
		st := out[t.names[s.name]]
		st.n++
		st.total += s.end - s.start
		st.self += stat.SelfTime(iv, children[i])
		out[t.names[s.name]] = st
		if s.parent < 0 {
			roots += s.end - s.start
		}
	}
	return out, roots
}
