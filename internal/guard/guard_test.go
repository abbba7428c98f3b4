package guard

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/env"
	"repro/internal/fl"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// testSystem builds a small constant-bandwidth system.
func testSystem(n int) *fl.System {
	devs := device.MustNewFleet(n, device.FleetParams{}, 11)
	traces := make([]*trace.Trace, n)
	for i := range traces {
		traces[i] = trace.MustNew("c", 1, []float64{2e6, 2.2e6, 1.8e6})
	}
	return &fl.System{Devices: devs, Traces: traces, Tau: 1, ModelBytes: 25e6, Lambda: 1}
}

// stub is a scriptable primary scheduler; the test mutates fn between
// decisions.
type stub struct {
	name string
	fn   func(ctx sched.Context) ([]float64, error)
}

func (s *stub) Name() string                                     { return s.name }
func (s *stub) Frequencies(ctx sched.Context) ([]float64, error) { return s.fn(ctx) }

func maxFreqs(sys *fl.System) []float64 {
	fs := make([]float64, sys.N())
	for i, d := range sys.Devices {
		fs[i] = d.MaxFreqHz
	}
	return fs
}

func baseConfig() Config {
	return Config{
		Env:          env.DefaultConfig(),
		OODThreshold: -1, // isolate the layer under test
		CostFactor:   -1,
	}
}

func decide(t *testing.T, g *Guard, sys *fl.System, k int) []float64 {
	t.Helper()
	fs, err := g.Frequencies(sched.Context{Sys: sys, Clock: float64(k) * 10, Iter: k})
	if err != nil {
		t.Fatalf("decision %d: %v", k, err)
	}
	for i, f := range fs {
		lo := 0.05 * sys.Devices[i].MaxFreqHz
		if math.IsNaN(f) || f < lo*(1-1e-12) || f > sys.Devices[i].MaxFreqHz*(1+1e-12) {
			t.Fatalf("decision %d: frequency %d = %v outside [%v, %v]", k, i, f, lo, sys.Devices[i].MaxFreqHz)
		}
	}
	return fs
}

func hasEvent(d Decision, ev string) bool {
	for _, e := range d.Events {
		if e == ev {
			return true
		}
	}
	return false
}

func TestSanitize(t *testing.T) {
	floor := []float64{1, 1, 1}
	cap := []float64{10, 10, 10}
	fs := []float64{0.5, 5, 20}
	clamps, err := Sanitize(fs, floor, cap)
	if err != nil || clamps != 2 {
		t.Fatalf("clamps = %d, err = %v", clamps, err)
	}
	if fs[0] != 1 || fs[1] != 5 || fs[2] != 10 {
		t.Fatalf("sanitized = %v", fs)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Sanitize([]float64{5, bad, 5}, floor, cap); err == nil {
			t.Fatalf("Sanitize accepted %v", bad)
		}
	}
	if _, err := Sanitize([]float64{1}, floor, cap); err == nil {
		t.Fatal("Sanitize accepted length mismatch")
	}
}

// TestBreakerTripProbationRecovery walks the full state machine through
// the pipeline: consecutive violations trip the actor, the fallback
// serves during probation, a successful probe re-closes.
func TestBreakerTripProbationRecovery(t *testing.T) {
	sys := testSystem(3)
	bad := true
	primary := &stub{name: "stub", fn: func(ctx sched.Context) ([]float64, error) {
		if bad {
			return []float64{math.NaN(), 1, 1}, nil
		}
		return maxFreqs(sys), nil
	}}
	cfg := baseConfig()
	cfg.TripAfter = 3
	cfg.Probation = 4
	chain, err := ChainFromSpec(sys, "heuristic,maxfreq", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(primary, cfg, chain...)
	if err != nil {
		t.Fatal(err)
	}
	// d0..d2: violations; trip fires at d2 (cooldown 4). d3..d5: probation.
	// d6: probe (Probation decisions after the trip) — scripted to succeed.
	for k := 0; k <= 5; k++ {
		decide(t, g, sys, k)
	}
	bad = false
	decide(t, g, sys, 6)
	decide(t, g, sys, 7) // finalizes the probe's deferred success -> close

	recs := g.Audit().Records()
	for k := 0; k <= 2; k++ {
		if !hasEvent(recs[k], "stub:non-finite-action") {
			t.Fatalf("decision %d missing violation event: %v", k, recs[k].Events)
		}
		if recs[k].Layer != "heuristic" {
			t.Fatalf("decision %d served by %s, want heuristic", k, recs[k].Layer)
		}
	}
	if !hasEvent(recs[2], "stub:trip") {
		t.Fatalf("no trip at decision 2: %v", recs[2].Events)
	}
	for k := 3; k <= 5; k++ {
		if recs[k].Layer != "heuristic" {
			t.Fatalf("probation decision %d served by %s", k, recs[k].Layer)
		}
		if hasEvent(recs[k], "stub:probe") {
			t.Fatalf("probe during probation at decision %d", k)
		}
	}
	if recs[6].Layer != "stub" || !hasEvent(recs[6], "stub:probe") {
		t.Fatalf("decision 6 = %+v, want stub probe serve", recs[6])
	}
	if !hasEvent(recs[6], "stub:close") {
		t.Fatalf("probe success did not close the breaker: %v", recs[6].Events)
	}
	if recs[7].Layer != "stub" {
		t.Fatalf("decision 7 served by %s after recovery", recs[7].Layer)
	}
}

// TestBreakerEscalation checks a failed probe reopens with an escalated
// probation window.
func TestBreakerEscalation(t *testing.T) {
	sys := testSystem(2)
	primary := &stub{name: "stub", fn: func(ctx sched.Context) ([]float64, error) {
		return []float64{math.Inf(1), 1}, nil // always bad
	}}
	cfg := baseConfig()
	cfg.TripAfter = 2
	cfg.Probation = 3
	chain, _ := ChainFromSpec(sys, "maxfreq", 0.05)
	g, err := New(primary, cfg, chain...)
	if err != nil {
		t.Fatal(err)
	}
	// d0,d1 violations -> trip at d1 (cooldown 3). Probe at d4 fails ->
	// reopen, probation 6. Next probe at d10.
	for k := 0; k <= 11; k++ {
		decide(t, g, sys, k)
	}
	recs := g.Audit().Records()
	if !hasEvent(recs[1], "stub:trip") {
		t.Fatalf("no trip at d1: %v", recs[1].Events)
	}
	if !hasEvent(recs[4], "stub:probe") || !hasEvent(recs[4], "stub:reopen") {
		t.Fatalf("d4 = %v, want failed probe + reopen", recs[4].Events)
	}
	for k := 5; k <= 9; k++ {
		if hasEvent(recs[k], "stub:probe") {
			t.Fatalf("probe at d%d inside escalated probation", k)
		}
	}
	if !hasEvent(recs[10], "stub:probe") {
		t.Fatalf("no probe at d10 after escalated probation: %v", recs[10].Events)
	}
}

// TestClampCountsAsViolation: an out-of-range but finite plan is served
// clamped, yet charged against the layer's breaker.
func TestClampCountsAsViolation(t *testing.T) {
	sys := testSystem(2)
	primary := &stub{name: "stub", fn: func(ctx sched.Context) ([]float64, error) {
		return []float64{sys.Devices[0].MaxFreqHz * 1.5, sys.Devices[1].MaxFreqHz}, nil
	}}
	cfg := baseConfig()
	cfg.TripAfter = 2
	chain, _ := ChainFromSpec(sys, "maxfreq", 0.05)
	g, err := New(primary, cfg, chain...)
	if err != nil {
		t.Fatal(err)
	}
	fs := decide(t, g, sys, 0)
	if fs[0] != sys.Devices[0].MaxFreqHz {
		t.Fatalf("clamp did not cap: %v", fs[0])
	}
	decide(t, g, sys, 1)
	recs := g.Audit().Records()
	if recs[0].Layer != "stub" || !hasEvent(recs[0], "stub:clamp=1") {
		t.Fatalf("d0 = %+v", recs[0])
	}
	if !hasEvent(recs[1], "stub:trip") {
		t.Fatalf("two clamp violations did not trip: %v", recs[1].Events)
	}
}

// TestPlanCostGate: a finite, in-range stall plan is rejected before it
// executes.
func TestPlanCostGate(t *testing.T) {
	sys := testSystem(2)
	floorPlan := make([]float64, sys.N())
	for i, d := range sys.Devices {
		floorPlan[i] = 0.05 * d.MaxFreqHz
	}
	primary := &stub{name: "stub", fn: func(ctx sched.Context) ([]float64, error) {
		return append([]float64(nil), floorPlan...), nil
	}}
	cfg := baseConfig()
	cfg.CostFactor = 1.5
	chain, _ := ChainFromSpec(sys, "maxfreq", 0.05)
	g, err := New(primary, cfg, chain...)
	if err != nil {
		t.Fatal(err)
	}
	decide(t, g, sys, 0)
	recs := g.Audit().Records()
	if !hasEvent(recs[0], "stub:plan-cost") {
		t.Fatalf("stall plan not rejected: %+v", recs[0])
	}
	if recs[0].Layer == "stub" {
		t.Fatal("stall plan was served")
	}
}

// TestCostRegression: serve-time-clean decisions whose realized cost
// regresses (via Observe) trip the breaker.
func TestCostRegression(t *testing.T) {
	sys := testSystem(2)
	primary := &stub{name: "stub", fn: func(ctx sched.Context) ([]float64, error) {
		return maxFreqs(sys), nil
	}}
	cfg := baseConfig()
	cfg.CostFactor = 2
	cfg.TripAfter = 3
	chain, _ := ChainFromSpec(sys, "maxfreq", 0.05)
	g, err := New(primary, cfg, chain...)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		decide(t, g, sys, k)
		g.Observe(fl.IterationStats{Cost: 1e18}) // absurd realized cost
	}
	recs := g.Audit().Records()
	if !hasEvent(recs[0], "stub:cost-regress") {
		t.Fatalf("no cost regression recorded: %v", recs[0].Events)
	}
	if !hasEvent(recs[2], "stub:trip") {
		t.Fatalf("three regressions did not trip: %v", recs[2].Events)
	}
	if recs[0].Cost != 1e18 {
		t.Fatalf("observed cost not recorded: %v", recs[0].Cost)
	}
}

// TestOODDetectorHysteresis unit-tests the gate's open/close thresholds.
func TestOODDetectorHysteresis(t *testing.T) {
	ref := &Reference{Mean: []float64{0, 0}, Std: []float64{1, 1}}
	o := newOODDetector(ref, 2, 0.5, 3)
	normal := tensor.Vector{0, 0}
	drifted := tensor.Vector{10, 10}
	for i := 0; i < 3; i++ {
		if ev := o.observe(o.score(normal)); ev != "" {
			t.Fatalf("event %q on normal input", ev)
		}
	}
	if ev := o.observe(o.score(drifted)); ev != "open" {
		t.Fatalf("drift did not open the gate (event %q)", ev)
	}
	// Window holds [10,0,0] then [0,10,0]...: avg 3.33 is back under the
	// open threshold but above hysteresis·threshold=1 — must stay open.
	if ev := o.observe(o.score(normal)); ev != "" {
		t.Fatalf("gate flapped at avg above hysteresis (event %q)", ev)
	}
	if ev := o.observe(o.score(normal)); ev != "" {
		t.Fatalf("gate closed early (event %q)", ev)
	}
	// Third normal flushes the spike out of the window: avg 0 < 1.
	if ev := o.observe(o.score(normal)); ev != "close" {
		t.Fatalf("gate did not close after recovery (event %q)", ev)
	}
	// Dimension mismatch is maximal drift.
	if s := o.score(tensor.Vector{1}); !math.IsInf(s, 1) {
		t.Fatalf("dim mismatch score = %v, want +Inf", s)
	}
}

// TestOODGateBypassesActor runs the full pipeline with a state-corruption
// hook shifting the observed state far from the reference: the gate must
// open (bypassing, not tripping, the actor) and close again after the
// corruption window.
func TestOODGateBypassesActor(t *testing.T) {
	sys := testSystem(3)
	served := 0
	primary := &stub{name: "stub", fn: func(ctx sched.Context) ([]float64, error) {
		served++
		return maxFreqs(sys), nil
	}}
	cfg := baseConfig()
	cfg.OODThreshold = 5
	ref, err := ProbeReference(sys, cfg.Env, 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ref = ref
	cfg.CorruptState = func(iter int, s tensor.Vector) {
		if iter >= 3 && iter < 8 {
			for i := range s {
				s[i] += 1e4 // enormous in BWScale units
			}
		}
	}
	chain, _ := ChainFromSpec(sys, "heuristic,maxfreq", 0.05)
	g, err := New(primary, cfg, chain...)
	if err != nil {
		t.Fatal(err)
	}
	// The gate averages DefaultOODWindow scores, so it can stay open up to
	// that many decisions past the corruption; run a few more after that.
	for k := 0; k < 8+DefaultOODWindow+5; k++ {
		decide(t, g, sys, k)
	}
	recs := g.Audit().Records()
	opened, closed := -1, -1
	for k, r := range recs {
		if hasEvent(r, "ood:open") && opened < 0 {
			opened = k
		}
		if hasEvent(r, "ood:close") && closed < 0 {
			closed = k
		}
	}
	if opened < 3 || opened >= 8 {
		t.Fatalf("gate opened at %d, want within corruption window", opened)
	}
	if closed < 8 {
		t.Fatalf("gate closed at %d, want after corruption window", closed)
	}
	for k := opened; k < 8; k++ {
		if recs[k].Layer == "stub" && k > opened {
			t.Fatalf("actor served at %d while gate open", k)
		}
		if hasEvent(recs[k], "stub:trip") {
			t.Fatalf("gate bypass tripped the actor breaker at %d", k)
		}
	}
	if last := recs[len(recs)-1]; last.Layer != "stub" {
		t.Fatalf("actor not serving after gate closed: %+v", last)
	}
	if g.Audit().EventCounts()["stub:ood-bypass"] == 0 {
		t.Fatal("no ood-bypass events recorded")
	}
}

// TestWatchdog: a level exceeding the latency budget is skipped and its
// late answer discarded; a still-running call marks the level busy.
func TestWatchdog(t *testing.T) {
	sys := testSystem(2)
	release := make(chan struct{})
	primary := &stub{name: "slow", fn: func(ctx sched.Context) ([]float64, error) {
		<-release
		return maxFreqs(sys), nil
	}}
	cfg := baseConfig()
	cfg.LatencyBudget = 5 * time.Millisecond
	cfg.TripAfter = 10 // keep the breaker out of this test
	chain, _ := ChainFromSpec(sys, "maxfreq", 0.05)
	g, err := New(primary, cfg, chain...)
	if err != nil {
		t.Fatal(err)
	}
	decide(t, g, sys, 0) // times out
	decide(t, g, sys, 1) // still in flight: busy
	close(release)
	time.Sleep(50 * time.Millisecond) // let the abandoned call drain
	decide(t, g, sys, 2)              // answers within budget now

	recs := g.Audit().Records()
	if !hasEvent(recs[0], "slow:latency") || recs[0].Layer != "maxfreq" {
		t.Fatalf("d0 = %+v, want latency skip", recs[0])
	}
	if !hasEvent(recs[1], "slow:busy") || recs[1].Layer != "maxfreq" {
		t.Fatalf("d1 = %+v, want busy skip", recs[1])
	}
	if recs[2].Layer != "slow" {
		t.Fatalf("d2 served by %s, want slow after release", recs[2].Layer)
	}
}

// TestInvalidStateFallsBack: non-finite observed state bypasses the actor
// with a breaker violation, and the fallback still serves a valid plan.
func TestInvalidStateFallsBack(t *testing.T) {
	sys := testSystem(2)
	primary := &stub{name: "stub", fn: func(ctx sched.Context) ([]float64, error) {
		t.Fatal("actor consulted on non-finite state")
		return nil, nil
	}}
	cfg := baseConfig()
	cfg.CorruptState = func(iter int, s tensor.Vector) { s[0] = math.NaN() }
	chain, _ := ChainFromSpec(sys, "heuristic,maxfreq", 0.05)
	g, err := New(primary, cfg, chain...)
	if err != nil {
		t.Fatal(err)
	}
	decide(t, g, sys, 0)
	recs := g.Audit().Records()
	if !hasEvent(recs[0], "input:non-finite-state") || recs[0].Layer != "heuristic" {
		t.Fatalf("d0 = %+v", recs[0])
	}
}

func TestChainFromSpec(t *testing.T) {
	sys := testSystem(2)
	chain, err := ChainFromSpec(sys, "heuristic", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 || chain[1].Name() != "maxfreq" {
		t.Fatalf("terminal maxfreq not appended: %d levels", len(chain))
	}
	if _, err := ChainFromSpec(sys, "oracle", 0.05); err == nil {
		t.Fatal("unknown fallback accepted")
	}
	chain, err = ChainFromSpec(sys, "", 0.05)
	if err != nil || len(chain) != 2 {
		t.Fatalf("default spec: %d levels, err %v", len(chain), err)
	}
}

func TestAuditLineCanonical(t *testing.T) {
	d := Decision{Iter: 3, Clock: 12.5, Layer: "drl", Score: 0.25, Cost: math.NaN(),
		Events: []string{"ood:open", "drl:ood-bypass"}}
	want := "k=3 layer=drl score=0.25 cost=- events=ood:open,drl:ood-bypass"
	if got := d.Line(); got != want {
		t.Fatalf("line = %q, want %q", got, want)
	}
	e := Decision{Iter: 0, Layer: "maxfreq", Score: math.NaN(), Cost: 42}
	if got := e.Line(); got != "k=0 layer=maxfreq score=- cost=42 events=-" {
		t.Fatalf("line = %q", got)
	}
}

func TestAuditCapKeepsCounters(t *testing.T) {
	a := newAudit(2)
	for i := 0; i < 5; i++ {
		a.add(Decision{Iter: i, Layer: "x"})
	}
	if a.Len() != 2 || a.Total() != 5 || a.Dropped() != 3 {
		t.Fatalf("len=%d total=%d dropped=%d", a.Len(), a.Total(), a.Dropped())
	}
	if a.ServedCounts()["x"] != 5 {
		t.Fatalf("served = %v", a.ServedCounts())
	}
	if recs := a.Records(); recs[0].Iter != 3 || recs[1].Iter != 4 {
		t.Fatalf("retained records = %+v", recs)
	}
	var sb strings.Builder
	if err := a.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "guard audit") {
		t.Fatalf("render missing summary: %q", sb.String())
	}
}

func TestConfigValidation(t *testing.T) {
	sys := testSystem(2)
	primary := &stub{name: "stub", fn: func(ctx sched.Context) ([]float64, error) { return maxFreqs(sys), nil }}
	chain, _ := ChainFromSpec(sys, "", 0.05)
	// OOD enabled without a reference must be rejected loudly.
	cfg := Config{Env: env.DefaultConfig()}
	if _, err := New(primary, cfg, chain...); err == nil {
		t.Fatal("OOD without reference accepted")
	}
	cfg = baseConfig()
	cfg.CostFactor = 0.5
	if _, err := New(primary, cfg, chain...); err == nil {
		t.Fatal("cost factor below 1 accepted")
	}
	if _, err := New(primary, baseConfig()); err == nil {
		t.Fatal("empty fallback chain accepted")
	}
	if _, err := New(nil, baseConfig(), chain...); err == nil {
		t.Fatal("nil primary accepted")
	}
}
