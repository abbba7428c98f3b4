package guard

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
)

var errTestFailure = errors.New("scripted stub failure")

// decisionsEqual compares two decisions treating NaN as equal to NaN.
func decisionsEqual(a, b Decision) bool {
	feq := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return math.IsNaN(x) && math.IsNaN(y)
		}
		return x == y
	}
	if a.Iter != b.Iter || a.Layer != b.Layer ||
		!feq(a.Clock, b.Clock) || !feq(a.Score, b.Score) || !feq(a.Cost, b.Cost) {
		return false
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		return false
	}
	if len(a.Plan) != len(b.Plan) {
		return false
	}
	for i := range a.Plan {
		if !feq(a.Plan[i], b.Plan[i]) {
			return false
		}
	}
	return true
}

func TestParseLineRoundTrip(t *testing.T) {
	cases := []Decision{
		{Iter: 0, Clock: math.NaN(), Layer: "drl", Score: math.NaN(), Cost: math.NaN()},
		{Iter: 7, Clock: math.NaN(), Layer: "heuristic", Score: 1.25, Cost: 42.5,
			Events: []string{"drl:latency", "drl:trip"}},
		{Iter: 3, Clock: math.NaN(), Layer: "maxfreq", Score: -0.5, Cost: math.NaN(),
			Events: []string{"input:non-finite-state", "drl:clamp=2"}},
		{Iter: 12, Clock: 99.625, Layer: "drl", Score: 2.5, Cost: 17.0,
			Plan: []float64{1e9, 2.5e9, 0.75e9}},
		{Iter: 1, Clock: 0, Layer: "maxfreq", Score: math.NaN(), Cost: math.NaN(),
			Events: []string{"ood:open", "drl:ood-bypass"},
			Plan:   []float64{5e8, math.NaN()}},
	}
	for _, want := range cases {
		line := want.Line()
		got, err := ParseLine(line)
		if err != nil {
			t.Fatalf("ParseLine(%q): %v", line, err)
		}
		if !decisionsEqual(got, want) {
			t.Fatalf("ParseLine(%q) = %+v, want %+v", line, got, want)
		}
		if re := got.Line(); re != line {
			t.Fatalf("re-rendered line %q, want %q", re, line)
		}
	}
}

func TestParseLineRejects(t *testing.T) {
	bad := []string{
		"",
		"k=1 layer=drl score=- cost=-", // 4 fields
		"k=1 layer=drl score=- cost=- events=- extra=1",        // 6 fields
		"iter=1 layer=drl score=- cost=- events=-",             // wrong key
		"k=x layer=drl score=- cost=- events=-",                // bad int
		"k=1 layer=drl score=z cost=- events=-",                // bad float
		"k=1 layer=drl score=- cost=- events=",                 // empty events
		"k=1 layer=drl score=- cost=- events=a,,b",             // empty event
		"k=1 t=0 layer=drl score=- cost=- events=- plan=",      // empty plan
		"k=1 t=0 layer=drl score=- cost=- events=- plan=1,z",   // bad plan entry
		"k=1 t=0 score=- layer=drl cost=- events=- plan=1",     // field order
		"k=1 layer=drl score=- cost=- events=- plan=1 extra=2", // no t= in extended
	}
	for _, line := range bad {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("ParseLine(%q) accepted, want error", line)
		}
	}
}

// TestGuardAuditLinesRoundTrip runs a real guarded session with plan
// recording on and checks every emitted audit line survives the
// parse→render round trip exactly.
func TestGuardAuditLinesRoundTrip(t *testing.T) {
	sys := testSystem(3)
	k := 0
	primary := &stub{name: "drl", fn: func(ctx sched.Context) ([]float64, error) {
		k++
		if k%4 == 0 {
			return nil, errTestFailure
		}
		fs := maxFreqs(sys)
		if k%3 == 0 {
			fs[0] *= 2 // clamped: charged as a violation, still served
		}
		return fs, nil
	}}
	cfg := baseConfig()
	cfg.RecordPlans = true
	g, err := New(primary, cfg, sched.MaxFreq{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		decide(t, g, sys, i)
	}
	lines := g.Audit().Lines()
	if len(lines) == 0 {
		t.Fatal("no audit lines")
	}
	plans := 0
	for _, line := range lines {
		d, err := ParseLine(line)
		if err != nil {
			t.Fatalf("ParseLine(%q): %v", line, err)
		}
		if re := d.Line(); re != line {
			t.Fatalf("round trip %q -> %q", line, re)
		}
		if len(d.Plan) > 0 {
			plans++
			if !strings.Contains(line, " t=") {
				t.Fatalf("plan-bearing line missing clock: %q", line)
			}
		}
	}
	if plans == 0 {
		t.Fatal("RecordPlans on but no line carried a plan")
	}
}

func TestTripReasons(t *testing.T) {
	a := newAudit(DefaultAuditCap)
	add := func(events ...string) {
		d := Decision{Iter: a.total, Layer: "maxfreq"}
		for _, ev := range events {
			a.note(&d, ev)
		}
		a.add(d)
	}
	add("drl:latency", "drl:trip")
	add("drl:latency", "drl:trip")
	add("drl:clamp=2", "drl:trip")
	add("drl:clamp=5", "drl:trip")
	add("heuristic:error", "heuristic:trip")
	add("ood:open", "drl:trip") // transition precedes: unattributable
	add("drl:trip")             // no preceding event at all
	add("drl:plan-cost")        // violation without trip: not counted
	got := a.TripReasons()
	want := map[string]int{
		"drl:latency":     2,
		"drl:clamp":       2,
		"heuristic:error": 1,
		"unknown":         2,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TripReasons = %v, want %v", got, want)
	}
}

// FuzzParseLine drives the audit-line parser with arbitrary input.
// Invariants: it never panics; any line it accepts re-renders to a
// canonical form that parses to the same decision and is a fixed point of
// the parse→render cycle.
func FuzzParseLine(f *testing.F) {
	f.Add("k=0 layer=drl score=- cost=- events=-")
	f.Add("k=12 layer=maxfreq score=3.5 cost=1e+09 events=drl:latency,drl:trip")
	f.Add("k=3 t=42.5 layer=drl score=-0.25 cost=- events=- plan=1e+09,2e+09")
	f.Add("k=1 t=- layer=h score=- cost=17 events=ood:open plan=-")
	f.Add("not an audit line")
	f.Fuzz(func(t *testing.T, line string) {
		d, err := ParseLine(line)
		if err != nil {
			return
		}
		canon := d.Line()
		d2, err := ParseLine(canon)
		if err != nil {
			t.Fatalf("canonical line %q (from %q) does not re-parse: %v", canon, line, err)
		}
		if !decisionsEqual(d, d2) {
			t.Fatalf("canonical line %q decodes to %+v, want %+v", canon, d2, d)
		}
		if re := d2.Line(); re != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q", canon, re)
		}
	})
}
