// Package server is the resilient multi-tenant scheduler daemon around the
// guarded fleet actor: a tenant registry where each tenant owns a guard
// chain, fronted by the overload pipeline DESIGN.md §13 specifies —
// token-bucket admission, a bounded per-tenant wait for the tenant's turn
// with deadline-aware shedding, per-request timeouts and a graceful drain
// that finishes every in-flight request, flushes audits and snapshots the
// registry crash-safely. Each request decides on its own goroutine while
// it holds its tenant's turn, through the tenant's guard chain (actor →
// heuristic → max-frequency); the tenant's mode is read off that chain's
// breakers.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"context"

	"repro/internal/core"
	"repro/internal/online"
)

// Config parameterizes the daemon. The zero value is not usable; start
// from DefaultServerConfig.
type Config struct {
	// Agent is the optionally loaded trained agent; tenants whose layout
	// fits may serve it ("auto"/"drl" primaries).
	Agent *core.Agent
	// Rate and Burst are the default per-tenant admission limits
	// (requests/s and bucket size); Rate <= 0 disables admission control
	// for tenants that do not set their own.
	Rate  float64
	Burst float64
	// QueueCap is the default per-tenant queue bound.
	QueueCap int
	// RequestTimeout bounds a request end to end when the client sends no
	// deadline of its own.
	RequestTimeout time.Duration
	// ActorBudget is the guard's per-decision latency watchdog (0
	// disables).
	ActorBudget time.Duration
	// SlowActor injects artificial latency into every tenant's primary —
	// the chaos hook exercising the watchdog.
	SlowActor time.Duration
	// AuditDir, when set, receives one <tenant>.audit file per tenant on
	// drain.
	AuditDir string
	// SnapshotPath, when set, is where drain persists the registry (and
	// where New restores it from).
	SnapshotPath string
	// RecordPlans switches every tenant guard to the extended audit lines
	// carrying decision clock and served plan, making exported audits
	// replayable by the online continual-learning loop.
	RecordPlans bool
	// Online, when set, enables the per-tenant continual-learning loop for
	// tenants serving a DRL primary: guard decisions stream into an
	// online.Loop off the decide path, and promoted candidates are
	// hot-swapped into the serving actor. The value is the loop
	// configuration (zero fields → the online package defaults); Guard.Env,
	// Fallback and OnPromote are filled per tenant. Implies RecordPlans.
	Online *online.Config
	// TenantSource, when set, supplies the declarative tenant specs that
	// SIGHUP / POST /v1/reload re-read (typically a file reader installed
	// by the flserver -tenants flag).
	TenantSource func() ([]TenantSpec, error)
	// Now is injectable time for tests; nil selects time.Now.
	Now func() time.Time
}

// DefaultServerConfig returns production-shaped defaults: no admission
// limit (opt-in per tenant), a 256-deep queue and a 1s request budget.
// Degradation is the guard's own (guard.Config defaults).
func DefaultServerConfig() Config {
	return Config{
		QueueCap:       256,
		RequestTimeout: time.Second,
	}
}

// Server is the daemon: registry, counters, histogram and drain state.
type Server struct {
	cfg      Config
	reg      *registry
	counters Counters
	hist     Histogram

	draining atomic.Bool
	inflight atomic.Int64
	started  time.Time
}

// New builds a server and restores the registry snapshot when one exists.
func New(cfg Config) (*Server, error) {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = time.Second
	}
	s := &Server{cfg: cfg, reg: newRegistry(), started: time.Now()}
	if cfg.SnapshotPath != "" {
		if _, err := s.RestoreSnapshot(cfg.SnapshotPath); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// now is the server's clock.
func (s *Server) now() time.Time {
	if s.cfg.Now != nil {
		return s.cfg.Now()
	}
	return time.Now()
}

// Register builds and installs a tenant and starts its online loop, when
// configured.
func (s *Server) Register(spec TenantSpec) (*Tenant, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if s.draining.Load() {
		return nil, fmt.Errorf("server: draining, not accepting tenants")
	}
	t, err := buildTenant(spec, s.cfg)
	if err != nil {
		return nil, err
	}
	if err := s.reg.put(t); err != nil {
		return nil, err
	}
	t.start()
	return t, nil
}

// Tenant resolves a registered tenant, or nil.
func (s *Server) Tenant(name string) *Tenant { return s.reg.get(name) }

// Counters exposes the lifetime counters.
func (s *Server) Counters() *Counters { return &s.counters }

// Hist exposes the decide service-time histogram.
func (s *Server) Hist() *Histogram { return &s.hist }

// Handler builds the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants", s.handleRegister)
	mux.HandleFunc("GET /v1/tenants/{name}", s.handleTenant)
	mux.HandleFunc("GET /v1/tenants/{name}/audit", s.handleAudit)
	mux.HandleFunc("POST /v1/decide", s.handleDecide)
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// maxPresizedBody caps the buffer readBody sizes from a declared
// Content-Length: about the decide body of a MaxTenantDevices fleet
// (last_bw and down, ~100 KiB). A longer body still reads, its buffer
// growing with the bytes that arrive, so a client that declares a length it
// never sends cannot make the server hold more than this.
const maxPresizedBody = 128 << 10

// readBody reads a request body of at most MaxRequestBytes. The buffer
// starts at the declared length (up to maxPresizedBody), so a decide body is
// read into one allocation; io.ReadAll would grow its buffer step by step
// (13 allocations for an 18 KB decide body).
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	size := min(max(r.ContentLength, 0), maxPresizedBody)
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxRequestBytes)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeJSON renders one JSON response.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError renders the uniform error body, mirroring any retry hint into
// the Retry-After header (whole seconds, rounded up, per RFC 9110).
func writeError(w http.ResponseWriter, status int, msg string, retryAfter time.Duration) {
	body := ErrorBody{Error: msg}
	if retryAfter > 0 {
		body.RetryAfterMS = float64(retryAfter) / float64(time.Millisecond)
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(w, status, body)
}

// handleRegister creates a tenant.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	spec, err := DecodeRegisterRequest(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	t, err := s.Register(*spec)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if s.draining.Load() {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusCreated, t.Stats())
}

// handleTenant reports one tenant's stats.
func (s *Server) handleTenant(w http.ResponseWriter, r *http.Request) {
	t := s.reg.get(r.PathValue("name"))
	if t == nil {
		writeError(w, http.StatusNotFound, "unknown tenant", 0)
		return
	}
	writeJSON(w, http.StatusOK, t.Stats())
}

// handleDecide runs the overload pipeline on the request's own goroutine:
// drain gate → strict decode → tenant lookup → admission → deadline shed →
// bounded wait for the tenant's turn → decision. Every request terminates
// in exactly one counter.
func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	s.counters.Requests.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	if s.draining.Load() {
		s.counters.ShedDrain.Add(1)
		writeError(w, http.StatusServiceUnavailable, "draining", time.Second)
		return
	}

	data, err := readBody(w, r)
	if err != nil {
		s.counters.Malformed.Add(1)
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	req, err := DecodeDecideRequest(data)
	if err != nil {
		s.counters.Malformed.Add(1)
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}

	t := s.reg.get(req.Tenant)
	if t == nil {
		s.counters.NotFound.Add(1)
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown tenant %q", req.Tenant), 0)
		return
	}

	// Admission: refuse over-rate traffic before any queue or decision
	// work, with an honest Retry-After. A batch is charged one token per
	// decision it carries.
	tokens := float64(req.Count)
	if tokens < 1 {
		tokens = 1
	}
	if ok, wait := t.bucket.TakeN(tokens); !ok {
		s.counters.ShedRate.Add(1)
		writeError(w, http.StatusTooManyRequests, "admission: rate limit", wait)
		return
	}

	// The client's budget, server-capped. It is compared in milliseconds
	// before it becomes a Duration, whose int64 nanoseconds a deadline
	// above ~9.2e12 ms would overflow to a negative budget.
	budget := s.cfg.RequestTimeout
	if ms := req.DeadlineMS; ms > 0 && ms < float64(budget)/float64(time.Millisecond) {
		budget = time.Duration(ms * float64(time.Millisecond))
	}

	// Deadline-aware shedding: if the expected wait for the turn already
	// spends the budget, reject now instead of letting the request time out
	// waiting — the client learns in microseconds, not after its deadline.
	if est := t.estWait(); est > budget {
		s.counters.ShedDeadline.Add(1)
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("queue wait ~%v exceeds %v budget", est.Round(time.Millisecond), budget), est-budget)
		return
	}

	// The deadline is an instant on the clock a context deadline uses,
	// checked by comparison, so a request that finds its tenant's turn
	// free arms no timer.
	req.deadline = time.Now().Add(budget)

	// A retired tenant means a reload replaced it after the lookup above:
	// re-resolve the name and decide on the replacement, so reloads drop
	// zero in-flight requests.
	res, retired := t.serve(r.Context(), s, req)
	for attempt := 0; retired; attempt++ {
		nt := s.reg.get(req.Tenant)
		if attempt == 2 || nt == nil || nt == t {
			res = callResult{status: http.StatusServiceUnavailable, errMsg: "tenant reloading", retryAfter: t.estWait()}
			break
		}
		t = nt
		res, retired = t.serve(r.Context(), s, req)
	}

	switch res.status {
	case http.StatusOK:
		s.counters.Served.Add(1)
		writeDecide(w, res.plan)
		return
	case http.StatusGatewayTimeout:
		s.counters.Timeouts.Add(1)
	case http.StatusBadRequest:
		// The tenant checks the request against its fleet size, which a
		// reload may have changed since decode.
		s.counters.Malformed.Add(1)
	case http.StatusServiceUnavailable:
		s.counters.ShedQueue.Add(1)
	}
	writeError(w, res.status, res.errMsg, res.retryAfter)
}

// statsBody is the /v1/stats response.
type statsBody struct {
	UptimeSec float64            `json:"uptime_sec"`
	Draining  bool               `json:"draining"`
	Counters  map[string]int64   `json:"counters"`
	LatencyMS map[string]float64 `json:"latency_ms"`
	Tenants   []TenantStats      `json:"tenants"`
}

// statsSnapshot assembles the live stats document served by /v1/stats and
// flushed by the telemetry ticker.
func (s *Server) statsSnapshot() statsBody {
	body := statsBody{
		UptimeSec: time.Since(s.started).Seconds(),
		Draining:  s.draining.Load(),
		Counters:  s.counters.Snapshot(),
		LatencyMS: map[string]float64{
			"p50": float64(s.hist.Quantile(0.50)) / float64(time.Millisecond),
			"p90": float64(s.hist.Quantile(0.90)) / float64(time.Millisecond),
			"p99": float64(s.hist.Quantile(0.99)) / float64(time.Millisecond),
		},
	}
	for _, t := range s.reg.all() {
		body.Tenants = append(body.Tenants, t.Stats())
	}
	return body
}

// handleStats reports counters, decide-latency quantiles and every
// tenant's state.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

// handleHealthz is the liveness/readiness probe: 200 serving, 503 draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining", 0)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// DrainReport accounts for a completed drain. Dropped is the invariant the
// chaos harness pins to zero: every accepted request was answered.
type DrainReport struct {
	Tenants   int   `json:"tenants"`
	Accepted  int64 `json:"accepted"`
	Responded int64 `json:"responded"`
	Dropped   int64 `json:"dropped"`
	// AuditFiles lists the audit logs flushed, in tenant order.
	AuditFiles []string `json:"audit_files,omitempty"`
	// Snapshot is the registry snapshot path, when persisted.
	Snapshot string `json:"snapshot,omitempty"`
}

// BeginDrain flips the server into drain mode: decide requests and tenant
// registrations are refused from this point on. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// FinishDrain completes a graceful shutdown. It must be called after
// BeginDrain and after the HTTP listener has stopped dispatching new
// requests (http.Server.Shutdown): it waits for every in-flight handler to
// finish, stops the tenants' online loops, and makes the final telemetry
// flush (FlushTelemetry: stats, one audit file per tenant and the registry
// snapshot, all crash-safe via atomic renames). The report's Dropped count
// is accepted − responded: zero means no in-flight request was dropped.
func (s *Server) FinishDrain(ctx context.Context) (*DrainReport, error) {
	if !s.draining.Load() {
		return nil, fmt.Errorf("server: FinishDrain before BeginDrain")
	}

	// Wait out handlers that passed the drain gate before it flipped; no
	// new ones can start. Once inflight hits zero no request waits for a
	// turn or decides, so stopping the online loops below is safe.
	for s.inflight.Load() != 0 {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("server: drain: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}

	tenants := s.reg.all()
	rep := &DrainReport{Tenants: len(tenants)}
	for _, t := range tenants {
		t.stopOnline()
		rep.Accepted += t.accepted.Load()
		rep.Responded += t.responded.Load()
	}
	rep.Dropped = rep.Accepted - rep.Responded

	tel, err := s.FlushTelemetry()
	rep.AuditFiles, rep.Snapshot = tel.AuditFiles, tel.Snapshot
	return rep, err
}
