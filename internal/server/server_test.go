package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/guard"
)

// newTestServer boots a server and its HTTP front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// registerTenant registers a fresh-actor tenant over the API.
func registerTenant(t *testing.T, ts *httptest.Server, spec TenantSpec) {
	t.Helper()
	body, _ := json.Marshal(&spec)
	resp, err := http.Post(ts.URL+"/v1/tenants", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var eb ErrorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		t.Fatalf("register %q: %s (%s)", spec.Name, resp.Status, eb.Error)
	}
}

// decide posts one decide request and decodes the response.
func decide(t *testing.T, ts *httptest.Server, req DecideRequest) (*DecideResponse, int) {
	t.Helper()
	body, _ := json.Marshal(&req)
	resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var dr DecideResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	return &dr, resp.StatusCode
}

func TestRegisterAndDecide(t *testing.T) {
	_, ts := newTestServer(t, DefaultServerConfig())
	registerTenant(t, ts, TenantSpec{Name: "alpha", N: 3, Seed: 1, Primary: PrimaryFresh})

	for k := 0; k < 5; k++ {
		dr, status := decide(t, ts, DecideRequest{Tenant: "alpha"})
		if status != http.StatusOK {
			t.Fatalf("decide %d: status %d", k, status)
		}
		if len(dr.Freqs) != 3 {
			t.Fatalf("decide %d: %d freqs, want 3", k, len(dr.Freqs))
		}
		for i, f := range dr.Freqs {
			if f <= 0 {
				t.Fatalf("decide %d: non-positive frequency %v at device %d", k, f, i)
			}
		}
		if dr.Iter != k {
			t.Fatalf("decide %d: iter %d", k, dr.Iter)
		}
		if dr.Mode != "guarded" {
			t.Fatalf("decide %d: mode %q", k, dr.Mode)
		}
	}
}

func TestBatchedDecide(t *testing.T) {
	s, ts := newTestServer(t, DefaultServerConfig())
	registerTenant(t, ts, TenantSpec{Name: "batch", N: 3, Seed: 1, Primary: PrimaryFresh})

	dr, status := decide(t, ts, DecideRequest{Tenant: "batch", Count: 5})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if dr.Count != 5 || len(dr.Plans) != 5 {
		t.Fatalf("count %d, %d plans, want 5/5", dr.Count, len(dr.Plans))
	}
	if len(dr.Freqs) != 3 {
		t.Fatalf("%d freqs in final plan, want 3", len(dr.Freqs))
	}
	for k, plan := range dr.Plans {
		if len(plan) != 3 {
			t.Fatalf("plan %d has %d freqs", k, len(plan))
		}
	}
	// All 5 decisions count, and the tenant's iterator advanced by 5.
	if got := s.Counters().Decisions.Load(); got != 5 {
		t.Fatalf("decisions counter %d, want 5", got)
	}
	dr2, status := decide(t, ts, DecideRequest{Tenant: "batch"})
	if status != http.StatusOK {
		t.Fatalf("followup status %d", status)
	}
	if dr2.Iter != 5 {
		t.Fatalf("followup iter %d, want 5", dr2.Iter)
	}
	// A batch is charged per decision by admission: burst 4 cannot admit
	// a 5-decision batch even when fresh.
	registerTenant(t, ts, TenantSpec{Name: "batch-lim", N: 3, Primary: PrimaryHeuristic, Rate: 1, Burst: 4})
	_, status = decide(t, ts, DecideRequest{Tenant: "batch-lim", Count: 5})
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-burst batch status %d, want 429", status)
	}
	// An oversized count is malformed, not queued.
	_, status = decide(t, ts, DecideRequest{Tenant: "batch", Count: MaxBatchDecisions + 1})
	if status != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d, want 400", status)
	}
}

func TestDecideHeuristicPrimary(t *testing.T) {
	_, ts := newTestServer(t, DefaultServerConfig())
	registerTenant(t, ts, TenantSpec{Name: "h", N: 3, Primary: PrimaryHeuristic})
	dr, status := decide(t, ts, DecideRequest{Tenant: "h"})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if dr.Layer != "heuristic" {
		t.Fatalf("layer %q, want heuristic", dr.Layer)
	}
}

func TestMalformedAndUnknown(t *testing.T) {
	s, ts := newTestServer(t, DefaultServerConfig())
	registerTenant(t, ts, TenantSpec{Name: "alpha", N: 3, Primary: PrimaryFresh})

	cases := []struct {
		name, body string
		status     int
	}{
		{"truncated", `{"tenant": "alpha"`, http.StatusBadRequest},
		{"unknown field", `{"tenant": "alpha", "bogus": 1}`, http.StatusBadRequest},
		{"trailing", `{"tenant": "alpha"} x`, http.StatusBadRequest},
		{"bad name", `{"tenant": "../../etc/passwd"}`, http.StatusBadRequest},
		{"negative clock", `{"tenant": "alpha", "clock": -5}`, http.StatusBadRequest},
		{"null bandwidth", `{"tenant": "alpha", "last_bw": [1, null, 3]}`, http.StatusBadRequest},
		{"unknown tenant", `{"tenant": "nobody"}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/decide", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	if got := s.Counters().Malformed.Load(); got != 6 {
		t.Fatalf("malformed counter %d, want 6", got)
	}
	if got := s.Counters().NotFound.Load(); got != 1 {
		t.Fatalf("not_found counter %d, want 1", got)
	}
}

// terminalSum adds the counters a decide request can end in; every request
// must land in exactly one of them.
func terminalSum(c map[string]int64) int64 {
	return c["served"] + c["malformed"] + c["not_found"] + c["shed_rate"] + c["shed_queue"] +
		c["shed_deadline"] + c["shed_drain"] + c["timeouts"]
}

// TestLengthMismatchCountedMalformed checks that a last_bw or down of the
// wrong length, which only the tenant can detect, is answered 400,
// counted as malformed, and leaves the tenant's clock untouched.
func TestLengthMismatchCountedMalformed(t *testing.T) {
	s, ts := newTestServer(t, DefaultServerConfig())
	registerTenant(t, ts, TenantSpec{Name: "alpha", N: 3, Primary: PrimaryFresh})
	clock := 999.0
	for _, req := range []DecideRequest{
		{Tenant: "alpha", Clock: &clock, LastBW: []float64{1e6, 2e6}},
		{Tenant: "alpha", Clock: &clock, Down: []bool{false, true, false, true}},
	} {
		if _, status := decide(t, ts, req); status != http.StatusBadRequest {
			t.Fatalf("length mismatch: status %d, want 400", status)
		}
		c := s.Counters().Snapshot()
		if c["requests"] != terminalSum(c) {
			t.Fatalf("requests %d, terminal counters sum to %d: %v", c["requests"], terminalSum(c), c)
		}
	}
	dr, status := decide(t, ts, DecideRequest{Tenant: "alpha"})
	if status != http.StatusOK {
		t.Fatalf("valid decide after mismatches: status %d", status)
	}
	if dr.Clock != 0 {
		t.Fatalf("a refused request moved the tenant clock to %v", dr.Clock)
	}
	c := s.Counters().Snapshot()
	if c["malformed"] != 2 || c["decisions"] != 1 || c["requests"] != terminalSum(c) {
		t.Fatalf("counters after 2 mismatches and 1 decision: %v", c)
	}
}

// TestClockStaysBounded replays a request sequence that once overflowed a
// tenant clock to +Inf: every later decide was answered 200 with an empty
// body and every snapshot failed to encode. A tick or a clock past
// MaxClockSec, and a request whose decisions would carry the clock past
// it, are now refused 400 before any tenant state changes and counted as
// malformed; every answer has a body that parses, and the drained
// snapshot restores the clock.
func TestClockStaysBounded(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "reg.snap.json")
	cfg := DefaultServerConfig()
	cfg.SnapshotPath = snap
	s, ts := newTestServer(t, cfg)
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(data) {
			t.Fatalf("POST %s %s: %d with body %q", path, body, resp.StatusCode, data)
		}
		return resp.StatusCode
	}
	const (
		maxClock  = "9007199254740992" // MaxClockSec, 2^53 s
		halfClock = "4503599627370496" // 2^52 s
	)
	for _, c := range []struct {
		path, body string
		want       int
	}{
		{"/v1/tenants", `{"name":"x","n":3,"primary":"heuristic","tick_sec":1e308}`, http.StatusBadRequest},
		{"/v1/tenants", `{"name":"x","n":3,"primary":"heuristic","tick_sec":9007199254740994}`, http.StatusBadRequest},
		{"/v1/tenants", `{"name":"x","n":3,"primary":"heuristic","tick_sec":` + halfClock + `}`, http.StatusCreated},
		{"/v1/decide", `{"tenant":"x","clock":1.7976931348623157e308}`, http.StatusBadRequest},
		{"/v1/decide", `{"tenant":"x","clock":1e16}`, http.StatusBadRequest},
		{"/v1/decide", `{"tenant":"x","clock":` + maxClock + `}`, http.StatusBadRequest},
		{"/v1/decide", `{"tenant":"x","clock":0,"count":3}`, http.StatusBadRequest},
		{"/v1/decide", `{"tenant":"x","clock":0,"count":2}`, http.StatusOK},
		{"/v1/decide", `{"tenant":"x"}`, http.StatusBadRequest},
		{"/v1/decide", `{"tenant":"x","observed_cost":1}`, http.StatusBadRequest},
		{"/v1/decide", `{"tenant":"x","clock":` + halfClock + `}`, http.StatusOK},
	} {
		if got := post(c.path, c.body); got != c.want {
			t.Fatalf("POST %s %s: %d, want %d", c.path, c.body, got, c.want)
		}
	}
	tn := s.Tenant("x")
	tn.mu.Lock()
	iter, clock := tn.iter, tn.clock
	tn.mu.Unlock()
	if iter != 3 || clock != MaxClockSec {
		t.Fatalf("tenant at iter %d, clock %v; want 3 and %v", iter, clock, float64(MaxClockSec))
	}
	c := s.Counters().Snapshot()
	if c["malformed"] != 6 || c["decisions"] != 3 || c["requests"] != terminalSum(c) {
		t.Fatalf("counters after 6 refusals and 3 decisions: %v", c)
	}
	if rep := s.BeginDrainForTest(t); rep.Snapshot != snap {
		t.Fatalf("drain wrote snapshot %q, want %q", rep.Snapshot, snap)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tn = s2.Tenant("x")
	if tn == nil {
		t.Fatal("tenant not restored from snapshot")
	}
	tn.mu.Lock()
	iter, clock = tn.iter, tn.clock
	tn.mu.Unlock()
	if iter != 3 || clock != MaxClockSec {
		t.Fatalf("restored iter %d, clock %v; want 3 and %v", iter, clock, float64(MaxClockSec))
	}
	s2.BeginDrainForTest(t)
}

// TestCountersReconcileOverServed checks the conservation identity where
// plans made and requests served part: a 5-plan batch is one request and
// five decisions, and a request whose deadline passes during its decision
// is one decision answered 504. Each request lands in exactly one terminal
// counter, and decisions counts the plans.
func TestCountersReconcileOverServed(t *testing.T) {
	check := func(s *Server, want map[string]int64) {
		t.Helper()
		s.BeginDrainForTest(t) // every decision has finished
		c := s.Counters().Snapshot()
		for k, v := range want {
			if got, ok := c[k]; !ok || got != v {
				t.Errorf("counter %q = %d (present %v), want %d: %v", k, got, ok, v, c)
			}
		}
		if c["requests"] != terminalSum(c) {
			t.Errorf("requests %d, terminal counters sum to %d: %v", c["requests"], terminalSum(c), c)
		}
	}

	s, ts := newTestServer(t, DefaultServerConfig())
	registerTenant(t, ts, TenantSpec{Name: "batch", N: 3, Primary: PrimaryFresh})
	if _, status := decide(t, ts, DecideRequest{Tenant: "batch", Count: 5}); status != http.StatusOK {
		t.Fatalf("batch: status %d", status)
	}
	check(s, map[string]int64{"requests": 1, "served": 1, "decisions": 5})

	cfg := DefaultServerConfig()
	cfg.SlowActor = 250 * time.Millisecond
	cfg.RequestTimeout = 50 * time.Millisecond
	s, ts = newTestServer(t, cfg)
	registerTenant(t, ts, TenantSpec{Name: "late", N: 3, Primary: PrimaryFresh})
	if _, status := decide(t, ts, DecideRequest{Tenant: "late"}); status != http.StatusGatewayTimeout {
		t.Fatalf("late decision: status %d, want 504", status)
	}
	check(s, map[string]int64{"requests": 1, "served": 0, "timeouts": 1, "decisions": 1})
}

// bytesPerRun returns the heap bytes f allocates per call, averaged over
// the calls f(1) … f(runs) after a warm-up call f(0).
func bytesPerRun(runs int, f func(i int)) uint64 {
	f(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= runs; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestReadBodyBounded checks readBody's buffer against what the client
// sends: a body read in one buffer of about its size, a declared length
// that is never sent held to maxPresizedBody instead of allocated, a body
// longer than the presize read intact, and one past MaxRequestBytes
// refused.
func TestReadBodyBounded(t *testing.T) {
	const runs = 20
	requests := func(body string, declared int64) []*http.Request {
		rs := make([]*http.Request, runs+1)
		for i := range rs {
			rs[i] = httptest.NewRequest(http.MethodPost, "/v1/decide", strings.NewReader(body))
			rs[i].ContentLength = declared
		}
		return rs
	}
	read := func(rs []*http.Request, want string) func(int) {
		return func(i int) {
			data, err := readBody(httptest.NewRecorder(), rs[i])
			if err != nil || string(data) != want {
				t.Fatalf("readBody: %d bytes, error %v; want the %d-byte body", len(data), err, len(want))
			}
		}
	}
	rec := httptest.NewRecorder()

	fleet := `{"tenant": "t0", "last_bw": [` + strings.Repeat("1234567.891011, ", 1100) + `1]}`
	rs := requests(fleet, int64(len(fleet)))
	if per := bytesPerRun(runs, read(rs, fleet)); per > uint64(len(fleet))*3/2 {
		t.Errorf("a %d-byte body allocates %d bytes per read, want one buffer of about its size", len(fleet), per)
	}

	small := `{"tenant": "a"}`
	rs = requests(small, MaxRequestBytes)
	if per := bytesPerRun(runs, read(rs, small)); per > maxPresizedBody+32<<10 {
		t.Errorf("a %d-byte body declaring %d bytes allocates %d bytes per read, bound %d",
			len(small), MaxRequestBytes, per, maxPresizedBody)
	}

	long := strings.Repeat("x", 3*maxPresizedBody)
	read(requests(long, int64(len(long))), long)(0)
	read(requests(long, -1), long)(0)

	over := strings.Repeat("x", MaxRequestBytes+1)
	if _, err := readBody(rec, requests(over, int64(len(over)))[0]); err == nil {
		t.Fatal("a body past MaxRequestBytes was read")
	}
}

func TestAdmissionControl(t *testing.T) {
	_, ts := newTestServer(t, DefaultServerConfig())
	// 1 request/s with a burst of 2: the third immediate request must be
	// rejected with an honest Retry-After.
	registerTenant(t, ts, TenantSpec{Name: "limited", N: 3, Primary: PrimaryHeuristic, Rate: 1, Burst: 2})

	for k := 0; k < 2; k++ {
		if _, status := decide(t, ts, DecideRequest{Tenant: "limited"}); status != http.StatusOK {
			t.Fatalf("decide %d: status %d", k, status)
		}
	}
	body, _ := json.Marshal(&DecideRequest{Tenant: "limited"})
	resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.RetryAfterMS <= 0 {
		t.Fatalf("retry_after_ms %v, want positive", eb.RetryAfterMS)
	}
}

func TestQueueSheddingUnderSlowActor(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.SlowActor = 50 * time.Millisecond
	cfg.QueueCap = 1
	cfg.RequestTimeout = 5 * time.Second
	s, ts := newTestServer(t, cfg)
	registerTenant(t, ts, TenantSpec{Name: "slow", N: 3, Primary: PrimaryFresh})

	// Flood far past the queue bound; with cap 1 and a 50ms actor some
	// requests must be shed (queue-full or deadline-estimate).
	var wg sync.WaitGroup
	var okN, shedN int64
	var mu sync.Mutex
	for k := 0; k < 16; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, status := decide(t, ts, DecideRequest{Tenant: "slow"})
			mu.Lock()
			defer mu.Unlock()
			switch status {
			case http.StatusOK:
				okN++
			case http.StatusServiceUnavailable:
				shedN++
			}
		}()
	}
	wg.Wait()
	if okN == 0 {
		t.Fatal("no request served")
	}
	if shedN == 0 {
		t.Fatal("no request shed despite queue cap 1 and a 50ms actor")
	}
	c := s.Counters()
	if c.ShedQueue.Load()+c.ShedDeadline.Load() != shedN {
		t.Fatalf("shed counters %d+%d do not match %d observed 503s",
			c.ShedQueue.Load(), c.ShedDeadline.Load(), shedN)
	}
}

func TestDeadlineShedding(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.SlowActor = 30 * time.Millisecond
	cfg.RequestTimeout = 5 * time.Second
	s, ts := newTestServer(t, cfg)
	registerTenant(t, ts, TenantSpec{Name: "dl", N: 3, Primary: PrimaryFresh})

	// Seed the EWMA with one slow decision.
	if _, status := decide(t, ts, DecideRequest{Tenant: "dl"}); status != http.StatusOK {
		t.Fatalf("seed decide: status %d", status)
	}
	// A 1ms budget cannot cover a ~30ms expected wait: shed up front.
	_, status := decide(t, ts, DecideRequest{Tenant: "dl", DeadlineMS: 1})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 deadline shed", status)
	}
	if s.Counters().ShedDeadline.Load() == 0 {
		t.Fatal("shed_deadline counter not incremented")
	}
}

func TestRequestTimeout(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.SlowActor = 200 * time.Millisecond
	cfg.RequestTimeout = 20 * time.Millisecond
	s, ts := newTestServer(t, cfg)
	registerTenant(t, ts, TenantSpec{Name: "to", N: 3, Primary: PrimaryFresh})

	_, status := decide(t, ts, DecideRequest{Tenant: "to"})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", status)
	}
	if s.Counters().Timeouts.Load() == 0 {
		t.Fatal("timeout counter not incremented")
	}
}

// checkActionBox fails unless plan holds one frequency per device of the
// tenant, each inside the guard's action box [MinFreqFrac·max, max].
func checkActionBox(t *testing.T, tn *Tenant, plan []float64) {
	t.Helper()
	if len(plan) != tn.sys.N() {
		t.Fatalf("%d frequencies for %d devices", len(plan), tn.sys.N())
	}
	minFrac := env.DefaultConfig().MinFreqFrac
	for i, d := range tn.sys.Devices {
		if !(plan[i] >= minFrac*d.MaxFreqHz && plan[i] <= d.MaxFreqHz) {
			t.Fatalf("device %d frequency %v outside [%v, %v]", i, plan[i], minFrac*d.MaxFreqHz, d.MaxFreqHz)
		}
	}
}

// trips counts the breaker trips in a tenant's audit events.
func trips(st TenantStats) int64 {
	var n int64
	for ev, k := range st.Events {
		if strings.HasSuffix(ev, ":trip") {
			n += int64(k)
		}
	}
	return n
}

// TestDegradeLadderAndRecovery drives a tenant's mode through its guard's
// breakers. Demotion: the actor answers only after a second, far past its
// millisecond budget, so the watchdog's timer always fires first and the
// still-busy actor is skipped by the decisions that follow (a 1ns budget
// could leave the result and the timer ready together); its breaker trips,
// and every response is still a feasible plan. Recovery: realized costs far
// above the safe plan trip a healthy actor; once the client stops reporting
// them, the probation window ends in a probe and the actor serves again.
func TestDegradeLadderAndRecovery(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.ActorBudget = time.Millisecond
	cfg.SlowActor = time.Second
	s, ts := newTestServer(t, cfg)
	registerTenant(t, ts, TenantSpec{Name: "lad", N: 3, Primary: PrimaryFresh})
	tn := s.Tenant("lad")
	var dr *DecideResponse
	for k := 0; k < guard.DefaultTripAfter+2; k++ {
		var status int
		if dr, status = decide(t, ts, DecideRequest{Tenant: "lad"}); status != http.StatusOK {
			t.Fatalf("slow actor, decide %d: status %d", k, status)
		}
		checkActionBox(t, tn, dr.Freqs)
	}
	if dr.Mode == string(ModeGuarded) || dr.Layer == tn.primary {
		t.Fatalf("slow actor: mode %q, layer %q after %d decisions, want degraded", dr.Mode, dr.Layer, guard.DefaultTripAfter+2)
	}
	if got := s.Counters().DegradeTransitions.Load(); got < 1 {
		t.Fatalf("slow actor: %d degrade transitions, want at least 1", got)
	}

	s, ts = newTestServer(t, DefaultServerConfig())
	registerTenant(t, ts, TenantSpec{Name: "heal", N: 3, Primary: PrimaryFresh})
	tn = s.Tenant("heal")
	huge := 1e12
	for k := 0; k <= guard.DefaultTripAfter; k++ {
		req := DecideRequest{Tenant: "heal"}
		if k > 0 {
			req.ObservedCost = &huge // decision k-1 cost far more than the safe plan
		}
		dr, status := decide(t, ts, req)
		if status != http.StatusOK {
			t.Fatalf("cost fault, decide %d: status %d", k, status)
		}
		if tripped := k == guard.DefaultTripAfter; (dr.Mode != string(ModeGuarded)) != tripped {
			t.Fatalf("cost fault, decide %d: mode %q (tripped %v)", k, dr.Mode, tripped)
		}
	}
	healed := -1
	for k := 1; k <= guard.DefaultProbation+2 && healed < 0; k++ {
		dr, status := decide(t, ts, DecideRequest{Tenant: "heal"})
		if status != http.StatusOK {
			t.Fatalf("healed, decide %d: status %d", k, status)
		}
		checkActionBox(t, tn, dr.Freqs)
		if dr.Mode == string(ModeGuarded) && dr.Layer == tn.primary {
			healed = k
		}
	}
	if healed < 0 {
		t.Fatalf("tenant not back to guarded within %d decisions of the trip", guard.DefaultProbation+2)
	}
	st := tn.Stats()
	if got := s.Counters().DegradeTransitions.Load(); got != 1 || got > trips(st) {
		t.Fatalf("cost fault: %d degrade transitions for %d trips, want 1", got, trips(st))
	}
}

// TestDegradeRateBoundedByProbation: whatever realized costs a client
// reports, a tenant's mode leaves guarded at most once in any window of
// guard.DefaultProbation decisions (a trip opens the primary for that many
// decisions, and re-closing it takes a probe), and every degrade transition
// follows a breaker trip.
func TestDegradeRateBoundedByProbation(t *testing.T) {
	s, err := New(DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.BeginDrainForTest(t)
	huge, low := 1e12, 0.0
	var left int64
	for seed := int64(1); seed <= 16; seed++ {
		spec := TenantSpec{Name: fmt.Sprintf("prop-%d", seed), N: 3, Seed: seed, Primary: PrimaryFresh}
		tn, err := s.Register(spec)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		pHuge := rng.Float64()
		lastLeave, guarded := -guard.DefaultProbation, true
		for k := 0; k < 300; k++ {
			req := &DecideRequest{Tenant: spec.Name}
			switch u := rng.Float64(); {
			case u < pHuge:
				req.ObservedCost = &huge
			case u < (1+pHuge)/2:
				req.ObservedCost = &low
			}
			res := tn.decide(s, req)
			if res.status != http.StatusOK {
				t.Fatalf("seed %d decide %d: status %d (%s)", seed, k, res.status, res.errMsg)
			}
			checkActionBox(t, tn, res.plan.Freqs)
			now := res.plan.Mode == string(ModeGuarded)
			if guarded && !now {
				if k-lastLeave < guard.DefaultProbation {
					t.Fatalf("seed %d: mode left guarded at decisions %d and %d, inside one %d-decision window",
						seed, lastLeave, k, guard.DefaultProbation)
				}
				lastLeave = k
				left++
			}
			guarded = now
		}
	}
	var tripped int64
	for _, st := range s.statsSnapshot().Tenants {
		tripped += trips(st)
	}
	got := s.Counters().DegradeTransitions.Load()
	if left == 0 || got < left || got > tripped {
		t.Fatalf("mode left guarded %d times, %d degrade transitions, %d trips; want left <= transitions <= trips, left > 0",
			left, got, tripped)
	}
}

// TestAuditGapFreeUnderDegradation: a tenant whose actor times out on every
// call degrades, yet every decision still goes through its guard, so the
// audit accounts for each one and its lines are one serial stream.
func TestAuditGapFreeUnderDegradation(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.ActorBudget = time.Millisecond
	cfg.SlowActor = time.Second
	_, ts := newTestServer(t, cfg)
	registerTenant(t, ts, TenantSpec{Name: "gap", N: 3, Primary: PrimaryFresh})
	const n = 40
	for k := 0; k < n; k++ {
		if _, status := decide(t, ts, DecideRequest{Tenant: "gap"}); status != http.StatusOK {
			t.Fatalf("decide %d: status %d", k, status)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var body statsBody
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if body.Counters["decisions"] != n || body.Counters["degrade_transitions"] < 1 || len(body.Tenants) != 1 {
		t.Fatalf("stats after %d decisions under a slow actor: %v, %d tenants", n, body.Counters, len(body.Tenants))
	}
	served := 0
	for _, k := range body.Tenants[0].Served {
		served += k
	}
	if int64(served) != body.Counters["decisions"] {
		t.Fatalf("audit served %d decisions of %d: %v", served, body.Counters["decisions"], body.Tenants[0].Served)
	}

	resp, err = http.Get(ts.URL + "/v1/tenants/gap/audit")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	recs := guard.ParseLines(string(text))
	if len(recs) != n {
		t.Fatalf("%d audit lines for %d decisions", len(recs), n)
	}
	for i, d := range recs {
		if d.Iter != i {
			t.Fatalf("audit line %d has k=%d", i, d.Iter)
		}
	}
}

func TestDrainNoDroppedInFlight(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.SlowActor = 5 * time.Millisecond
	cfg.RequestTimeout = 10 * time.Second
	cfg.QueueCap = 1024
	s, ts := newTestServer(t, cfg)
	registerTenant(t, ts, TenantSpec{Name: "drain", N: 3, Primary: PrimaryFresh})

	// Launch a burst and begin draining while it is in flight.
	var wg sync.WaitGroup
	var served, shed int64
	var mu sync.Mutex
	for k := 0; k < 32; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, status := decide(t, ts, DecideRequest{Tenant: "drain"})
			mu.Lock()
			defer mu.Unlock()
			switch status {
			case http.StatusOK:
				served++
			case http.StatusServiceUnavailable:
				shed++
			default:
				t.Errorf("unexpected status %d", status)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let some requests enter the pipeline
	s.BeginDrain()
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := s.FinishDrain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 0 {
		t.Fatalf("drain dropped %d in-flight requests (accepted %d, responded %d)",
			rep.Dropped, rep.Accepted, rep.Responded)
	}
	if rep.Accepted != served {
		t.Fatalf("accepted %d != served %d", rep.Accepted, served)
	}
	// Post-drain requests are refused, not queued.
	_, status := decide(t, ts, DecideRequest{Tenant: "drain"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503", status)
	}
}

// driveSequence runs a fixed request sequence against a fresh server and
// returns the drained audit bytes for the tenant.
func driveSequence(t *testing.T, auditDir string) []byte {
	t.Helper()
	cfg := DefaultServerConfig()
	cfg.AuditDir = auditDir
	s, ts := newTestServer(t, cfg)
	registerTenant(t, ts, TenantSpec{Name: "stable", N: 3, Seed: 7, Primary: PrimaryFresh})

	clock := 0.0
	for k := 0; k < 20; k++ {
		req := DecideRequest{Tenant: "stable", Clock: &clock}
		if k%3 == 2 {
			cost := 5.0 + float64(k)
			req.ObservedCost = &cost
		}
		if _, status := decide(t, ts, req); status != http.StatusOK {
			t.Fatalf("decide %d: status %d", k, status)
		}
		clock += 10
	}
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.FinishDrain(ctx); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(auditDir, "stable.audit"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestAuditByteStableAcrossRuns(t *testing.T) {
	a := driveSequence(t, t.TempDir())
	b := driveSequence(t, t.TempDir())
	if len(a) == 0 {
		t.Fatal("empty audit")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("audit bytes differ across identical runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// wrapBatches is how many MaxBatchDecisions batches take a tenant's audit
// past its cap (5 × 1024 = 5120 decisions against DefaultAuditCap = 4096).
const wrapBatches = 5

// TestAuditWrapsPastCap drives one tenant past its audit's cap with pinned
// batches that close the cost loop, then drains: the audit file keeps the
// newest DefaultAuditCap decisions in order, every line round-trips through
// guard.ParseLine, and the summary counts every decision served.
func TestAuditWrapsPastCap(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultServerConfig()
	cfg.AuditDir = dir
	cfg.RecordPlans = true
	cfg.RequestTimeout = time.Minute // a whole batch under -race
	s, ts := newTestServer(t, cfg)
	registerTenant(t, ts, TenantSpec{Name: "wrap", N: 3, Seed: 5, Primary: PrimaryFresh})
	const total = wrapBatches * MaxBatchDecisions
	for b := 0; b < wrapBatches; b++ {
		clock, cost := 100+20000*float64(b), 40+float64(b)
		dr, status := decide(t, ts, DecideRequest{Tenant: "wrap", Clock: &clock, ObservedCost: &cost, Count: MaxBatchDecisions})
		if status != http.StatusOK || dr.Count != MaxBatchDecisions || dr.Iter != b*MaxBatchDecisions {
			t.Fatalf("batch %d: status %d, %+v", b, status, dr)
		}
	}
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.FinishDrain(ctx); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "wrap.audit"))
	if err != nil {
		t.Fatal(err)
	}

	first := total - guard.DefaultAuditCap
	k, served := first, 0
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "served" {
			n, err := strconv.Atoi(f[2])
			if err != nil {
				t.Fatalf("summary row %q: %v", line, err)
			}
			served += n
		}
		if !strings.HasPrefix(line, "k=") {
			continue
		}
		d, err := guard.ParseLine(line)
		if err != nil {
			t.Fatalf("audit line %q: %v", line, err)
		}
		if d.Line() != line {
			t.Fatalf("audit line %q re-renders as %q", line, d.Line())
		}
		// Decision k is the (k mod 1024)-th of batch k/1024, priced one
		// 10 s tick after the previous one from the batch's pinned clock.
		clock := 100 + 20000*float64(k/MaxBatchDecisions) + 10*float64(k%MaxBatchDecisions)
		if d.Iter != k || d.Clock != clock {
			t.Fatalf("audit line %d of the window is k=%d at t=%v, want k=%d at t=%v", k-first, d.Iter, d.Clock, k, clock)
		}
		// A batch's observed cost lands on the previous batch's last decision.
		if b := (k + 1) / MaxBatchDecisions; (k+1)%MaxBatchDecisions == 0 && b < wrapBatches {
			if d.Cost != 40+float64(b) {
				t.Fatalf("k=%d: cost %v, want the next batch's observed %v", k, d.Cost, 40+float64(b))
			}
		} else if !math.IsNaN(d.Cost) {
			t.Fatalf("k=%d: cost %v, want none observed", k, d.Cost)
		}
		k++
	}
	if k != total {
		t.Fatalf("audit window ends at k=%d, want %d lines ending at k=%d", k-1, guard.DefaultAuditCap, total-1)
	}
	if served != total {
		t.Fatalf("audit summary counts %d served decisions, want %d", served, total)
	}
}

// BenchmarkDecideSteadyState times one in-process /v1/decide (pinned
// clock, last_bw) through the handler on perfbench's serve-testbed shape,
// 8 fresh-actor N=3 tenants served round-robin, each already past its
// audit's cap as a long-running tenant is. Each request carries the
// context net/http gives a request on a keep-alive connection: a
// cancelable child of the connection's, canceled once the handler returns.
func BenchmarkDecideSteadyState(b *testing.B) {
	s, err := New(DefaultServerConfig())
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	conn, closeConn := context.WithCancel(context.Background())
	defer closeConn()
	post := func(body []byte) {
		ctx, cancel := context.WithCancel(conn)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(body)).WithContext(ctx))
		cancel()
		if rec.Code != http.StatusOK {
			b.Fatalf("decide %s: status %d: %s", body, rec.Code, rec.Body)
		}
	}
	const tenants, seqLen = 8, 64
	bodies := make([][]byte, 0, tenants*seqLen)
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("t%d", i)
		if _, err := s.Register(TenantSpec{Name: name, N: 3, Seed: int64(i) + 1, Primary: PrimaryFresh}); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < wrapBatches; k++ {
			post([]byte(fmt.Sprintf(`{"tenant": %q, "clock": 0, "count": %d}`, name, MaxBatchDecisions)))
		}
	}
	for k := 0; k < seqLen; k++ {
		for i := 0; i < tenants; i++ {
			clock := 60 + 10*float64(k)
			body, err := json.Marshal(DecideRequest{Tenant: fmt.Sprintf("t%d", i), Clock: &clock,
				LastBW: []float64{1.5e6 + 1e4*float64(k), 2e6, 2.5e6 - 1e4*float64(i)}})
			if err != nil {
				b.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(bodies[i%len(bodies)])
	}
}

// BenchmarkRegisterTenant times one registration of perfbench's
// serve-fleet tenant shape, a fresh-actor N=1000 tenant, through Register:
// trace generation, the slot table, the drift gate's reference probe and
// the fresh agent. Each registration goes to a new server, so at most one
// tenant's traces stay reachable.
func BenchmarkRegisterTenant(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := New(DefaultServerConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := s.Register(TenantSpec{Name: "fleet", N: 1000, Seed: int64(i%4) + 1, Primary: PrimaryFresh}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "reg.snap.json")

	cfg := DefaultServerConfig()
	cfg.SnapshotPath = snap
	cfg.AuditDir = filepath.Join(filepath.Dir(snap), "audits")
	s, ts := newTestServer(t, cfg)
	registerTenant(t, ts, TenantSpec{Name: "persist", N: 3, Seed: 3, Primary: PrimaryFresh})
	for k := 0; k < 4; k++ {
		if _, status := decide(t, ts, DecideRequest{Tenant: "persist"}); status != http.StatusOK {
			t.Fatalf("decide %d: status %d", k, status)
		}
	}
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := s.FinishDrain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Snapshot != snap {
		t.Fatalf("snapshot path %q, want %q", rep.Snapshot, snap)
	}
	// Drain is the last telemetry flush: the audit and the stats document
	// land beside the snapshot.
	if want := filepath.Join(cfg.AuditDir, "persist.audit"); len(rep.AuditFiles) != 1 || rep.AuditFiles[0] != want {
		t.Fatalf("audit files %v, want [%s]", rep.AuditFiles, want)
	}
	data, err := os.ReadFile(filepath.Join(cfg.AuditDir, "stats.json"))
	if err != nil {
		t.Fatalf("no stats after drain: %v", err)
	}
	var stats statsBody
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Draining || stats.Counters["decisions"] != 4 {
		t.Fatalf("drained stats: draining %v, counters %v", stats.Draining, stats.Counters)
	}

	// A restarted daemon restores the tenant and resumes its progress.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tn := s2.Tenant("persist")
	if tn == nil {
		t.Fatal("tenant not restored from snapshot")
	}
	tn.mu.Lock()
	iter, clock := tn.iter, tn.clock
	tn.mu.Unlock()
	if iter != 4 {
		t.Fatalf("restored iter %d, want 4", iter)
	}
	if clock != 40 {
		t.Fatalf("restored clock %v, want 40", clock)
	}
	s2.BeginDrainForTest(t)
}

// TestRestoreSnapshotRejectsInvalidRows feeds RestoreSnapshot rows whose
// progress markers the decide path cannot produce. Each file is rejected
// with an error naming the file, the tenant and the field, and none of its
// tenants is registered, not even the valid row listed first.
func TestRestoreSnapshotRejectsInvalidRows(t *testing.T) {
	dir := t.TempDir()
	for i, tc := range []struct{ row, field string }{
		{`"iter": 2, "clock": -5`, "clock"},
		{`"iter": 2, "clock": 1e16`, "clock"},
		{`"iter": -3, "clock": 20`, "iter"},
		{`"iter": 9223372036854775807, "clock": 20`, "iter"},
	} {
		path := filepath.Join(dir, fmt.Sprintf("reg%d.snap.json", i))
		body := `{"version": 1, "tenants": [
			{"spec": {"name": "good", "n": 3, "primary": "fresh"}, "iter": 4, "clock": 40},
			{"spec": {"name": "bad", "n": 3, "primary": "fresh"}, ` + tc.row + `}]}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(DefaultServerConfig())
		if err != nil {
			t.Fatal(err)
		}
		restored, err := s.RestoreSnapshot(path)
		if err == nil {
			t.Errorf("row {%s}: restored %d tenants without error", tc.row, restored)
		} else {
			for _, want := range []string{path, `"bad"`, tc.field} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("row {%s}: error %q does not name %s", tc.row, err, want)
				}
			}
		}
		if restored != 0 || s.Tenant("good") != nil || s.Tenant("bad") != nil {
			t.Errorf("row {%s}: %d tenants registered from a rejected file", tc.row, restored)
		}
		s.BeginDrainForTest(t)
	}
}

// BeginDrainForTest shuts the second server's workers down cleanly so the
// test leaves no goroutines behind.
func (s *Server) BeginDrainForTest(t *testing.T) *DrainReport {
	t.Helper()
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := s.FinishDrain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, DefaultServerConfig())
	registerTenant(t, ts, TenantSpec{Name: "st", N: 3, Primary: PrimaryFresh})
	if _, status := decide(t, ts, DecideRequest{Tenant: "st"}); status != http.StatusOK {
		t.Fatalf("decide status %d", status)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Counters map[string]int64 `json:"counters"`
		Tenants  []TenantStats    `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Counters["decisions"] != 1 {
		t.Fatalf("decisions counter %d, want 1", body.Counters["decisions"])
	}
	if len(body.Tenants) != 1 || body.Tenants[0].Name != "st" {
		t.Fatalf("tenants %+v", body.Tenants)
	}
}

func TestHealthzReflectsDrain(t *testing.T) {
	s, ts := newTestServer(t, DefaultServerConfig())
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy status %d", resp.StatusCode)
	}
	s.BeginDrain()
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status %d, want 503", resp.StatusCode)
	}
}

func TestRegisterValidation(t *testing.T) {
	_, ts := newTestServer(t, DefaultServerConfig())
	bad := []string{
		`{"name": "", "n": 3}`,
		`{"name": "x", "n": 0}`,
		fmt.Sprintf(`{"name": "x", "n": %d}`, MaxTenantDevices+1),
		`{"name": "x", "n": 3, "primary": "quantum"}`,
		`{"name": "x/y", "n": 3}`,
	}
	for _, body := range bad {
		resp, err := http.Post(ts.URL+"/v1/tenants", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Duplicate registration is a 422, not a silent replace.
	registerTenant(t, ts, TenantSpec{Name: "dup", N: 3, Primary: PrimaryHeuristic})
	body, _ := json.Marshal(&TenantSpec{Name: "dup", N: 3, Primary: PrimaryHeuristic})
	resp, err := http.Post(ts.URL+"/v1/tenants", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("duplicate register status %d, want 422", resp.StatusCode)
	}
}
