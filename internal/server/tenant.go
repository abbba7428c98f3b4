package server

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/guard"
	"repro/internal/online"
	"repro/internal/sched"
)

// Mode is a tenant's serving mode, read off its guard's breakers
// (guard.Guard.Level): ModeGuarded while the primary's breaker is closed,
// otherwise the name of the first fallback level whose breaker is closed —
// "heuristic", or "maxfreq" when every breaker is open.
type Mode string

// ModeGuarded is the mode of a tenant whose primary is in service.
const ModeGuarded Mode = "guarded"

// String names the mode for responses and stats.
func (m Mode) String() string { return string(m) }

// Primary kinds a tenant may request.
const (
	// PrimaryAuto serves the loaded agent when its layout matches the
	// tenant, else a fresh (untrained) actor of the right layout.
	PrimaryAuto = "auto"
	// PrimaryDRL requires the loaded agent (registration fails on layout
	// mismatch).
	PrimaryDRL = "drl"
	// PrimaryFresh builds an untrained actor for the tenant's layout —
	// the load-test configuration: full serving cost, no training needed.
	PrimaryFresh = "fresh"
	// PrimaryHeuristic serves the heuristic baseline as the guard's
	// primary (no actor at all).
	PrimaryHeuristic = "heuristic"
)

// TenantSpec declares one tenant: the FL deployment it schedules for and
// its robustness envelope. It is the registration wire format and the unit
// the registry snapshot persists.
type TenantSpec struct {
	// Name identifies the tenant ([A-Za-z0-9._-], ≤128 bytes).
	Name string `json:"name"`
	// N is the fleet size (devices).
	N int `json:"n"`
	// Lambda is the cost weight λ; 0 keeps the testbed default 1.
	Lambda float64 `json:"lambda,omitempty"`
	// Seed drives the tenant's trace/fleet generation (and its fresh
	// actor, when one is built).
	Seed int64 `json:"seed,omitempty"`
	// Primary selects the guard's primary: auto (default), drl, fresh or
	// heuristic.
	Primary string `json:"primary,omitempty"`
	// Fallback is the guard fallback chain spec (guard.ChainFromSpec;
	// empty keeps "heuristic,maxfreq").
	Fallback string `json:"fallback,omitempty"`
	// OODThreshold tunes the guard's drift gate (0 default, <0 disables).
	OODThreshold float64 `json:"ood_threshold,omitempty"`
	// Rate is the admission rate in requests/s (0 inherits the server
	// default; <0 disables admission control for this tenant).
	Rate float64 `json:"rate,omitempty"`
	// Burst is the admission burst (0 inherits the server default).
	Burst float64 `json:"burst,omitempty"`
	// QueueCap bounds the requests waiting for the tenant's turn (0
	// inherits).
	QueueCap int `json:"queue_cap,omitempty"`
	// TickSec advances the tenant clock per decision when requests do not
	// pin one (0 keeps 10s, one bandwidth slot; at most MaxClockSec).
	TickSec float64 `json:"tick_sec,omitempty"`
}

// Validate bounds a spec. Called by the strict decoder before any build
// work is queued.
func (s *TenantSpec) Validate() error {
	if err := validTenantName(s.Name); err != nil {
		return err
	}
	if s.N < 1 || s.N > MaxTenantDevices {
		return fmt.Errorf("server: tenant %q fleet size %d outside [1,%d]", s.Name, s.N, MaxTenantDevices)
	}
	if s.Lambda < 0 || math.IsNaN(s.Lambda) || math.IsInf(s.Lambda, 0) {
		return fmt.Errorf("server: tenant %q λ=%v must be finite and non-negative", s.Name, s.Lambda)
	}
	switch s.Primary {
	case "", PrimaryAuto, PrimaryDRL, PrimaryFresh, PrimaryHeuristic:
	default:
		return fmt.Errorf("server: tenant %q unknown primary %q (want auto, drl, fresh or heuristic)", s.Name, s.Primary)
	}
	if math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) || math.IsNaN(s.Burst) || math.IsInf(s.Burst, 0) || s.Burst < 0 {
		return fmt.Errorf("server: tenant %q invalid admission rate/burst %v/%v", s.Name, s.Rate, s.Burst)
	}
	if s.QueueCap < 0 || s.QueueCap > 1<<20 {
		return fmt.Errorf("server: tenant %q queue capacity %d outside [0,%d]", s.Name, s.QueueCap, 1<<20)
	}
	if !(s.TickSec >= 0 && s.TickSec <= MaxClockSec) {
		return fmt.Errorf("server: tenant %q tick %vs outside [0, %v]", s.Name, s.TickSec, float64(MaxClockSec))
	}
	if s.OODThreshold != 0 && (math.IsNaN(s.OODThreshold) || math.IsInf(s.OODThreshold, 0)) {
		return fmt.Errorf("server: tenant %q non-finite OOD threshold", s.Name)
	}
	return nil
}

// callResult is one request's answer.
type callResult struct {
	status     int
	plan       *DecideResponse
	errMsg     string
	retryAfter time.Duration
}

// timedOut answers a request whose deadline passed before its answer.
var timedOut = callResult{status: http.StatusGatewayTimeout, errMsg: "deadline exceeded"}

// Tenant is one registered tenant: its simulated FL system, its guard
// chain and its admission/queue state. A request decides on its own
// goroutine while it holds the tenant's turn, so the guard (documented
// single-stream) sees one decision at a time, in turn order; mu guards the
// decision state (guard, clock, iterator) against stats readers, snapshots
// and swapActor.
type Tenant struct {
	spec TenantSpec
	sys  *fl.System

	mu      sync.Mutex
	guard   *guard.Guard
	drl     *sched.DRL // nil for heuristic-primary tenants
	primary string     // layer name of the guard's primary
	maxPlan []float64  // served when the guard itself errors
	level   int        // the guard's Level index after the last decision or observation
	iter    int
	clock   float64

	bucket *Bucket
	// turn is the right to decide: a request takes it by sending and gives
	// it back by receiving. Go queues blocked senders in order, so waiting
	// requests take the turn first in, first out.
	turn     chan struct{}
	waiting  atomic.Int64 // requests waiting for the turn, at most queueCap
	queueCap int64
	retired  bool         // set by retire under the turn
	ewmaNS   atomic.Int64 // EWMA decide service time, nanoseconds

	// Online continual learning (nil/zero when disabled): guarded
	// decisions stream into the loop's goroutine, which retrains on drift
	// and hot-swaps promoted candidates into the serving DRL.
	loop             *online.Loop
	onlineCh         chan guard.Decision
	onlineWG         sync.WaitGroup
	onlineDropped    atomic.Int64
	onlineErrs       atomic.Int64
	onlineRetrains   atomic.Int64
	onlinePromotions atomic.Int64

	// Drain accounting: a request is accepted when it takes the turn of a
	// live tenant and responded when it gives the turn back with its
	// answer. Both move only under the turn, so whoever holds it, and
	// every reader once no request is in flight, sees accepted == responded:
	// zero dropped by construction.
	accepted  atomic.Int64
	responded atomic.Int64
}

// buildTenant materializes a spec: the trace-driven system, the primary
// scheduler, the guard chain and the safe plans.
func buildTenant(spec TenantSpec, cfg Config) (*Tenant, error) {
	sc := experiments.TestbedScenario(spec.Seed)
	sc.N = spec.N
	if spec.Lambda > 0 {
		sc.Lambda = spec.Lambda
	}
	sys, err := sc.Build()
	if err != nil {
		return nil, fmt.Errorf("server: tenant %q: %w", spec.Name, err)
	}

	t := &Tenant{spec: spec, sys: sys}

	// Resolve the primary actor.
	primaryKind := spec.Primary
	if primaryKind == "" {
		primaryKind = PrimaryAuto
	}
	agent := cfg.Agent
	envCfg := env.DefaultConfig()
	if agent != nil {
		envCfg = agent.EnvCfg
	}
	stateDim := spec.N * (envCfg.History + 1)
	agentFits := agent != nil && agent.Policy.ActionDim() == spec.N && agent.Policy.StateDim() == stateDim
	if primaryKind == PrimaryAuto {
		if agentFits {
			primaryKind = PrimaryDRL
		} else {
			primaryKind = PrimaryFresh
		}
	}

	var primary sched.Scheduler
	switch primaryKind {
	case PrimaryDRL:
		if !agentFits {
			if agent == nil {
				return nil, fmt.Errorf("server: tenant %q wants the trained actor but the daemon has no agent loaded", spec.Name)
			}
			return nil, fmt.Errorf("server: tenant %q (N=%d) does not fit the loaded agent (action dim %d, state dim %d)",
				spec.Name, spec.N, agent.Policy.ActionDim(), agent.Policy.StateDim())
		}
		drl, err := agent.Scheduler()
		if err != nil {
			return nil, fmt.Errorf("server: tenant %q: %w", spec.Name, err)
		}
		t.drl = drl
		primary = drl
	case PrimaryFresh:
		fresh, err := freshAgent(sys, spec.Seed)
		if err != nil {
			return nil, fmt.Errorf("server: tenant %q: %w", spec.Name, err)
		}
		envCfg = fresh.EnvCfg
		drl, err := fresh.Scheduler()
		if err != nil {
			return nil, fmt.Errorf("server: tenant %q: %w", spec.Name, err)
		}
		agent = fresh
		t.drl = drl
		primary = drl
	case PrimaryHeuristic:
		h, err := guard.Heuristic(sys, envCfg.MinFreqFrac)
		if err != nil {
			return nil, fmt.Errorf("server: tenant %q: %w", spec.Name, err)
		}
		primary = h
		agent = nil
	}

	// Chaos hook: a slow actor exposes the watchdog path.
	if cfg.SlowActor > 0 {
		primary = &slowScheduler{inner: primary, delay: cfg.SlowActor}
	}
	t.primary = primary.Name()

	// Guard chain around the primary.
	gcfg := guard.Config{
		Env:           envCfg,
		OODThreshold:  spec.OODThreshold,
		LatencyBudget: cfg.ActorBudget,
		RecordPlans:   cfg.RecordPlans || cfg.Online != nil,
	}
	if t.drl == nil {
		// No actor, no training distribution: the drift gate has nothing
		// to compare against.
		gcfg.OODThreshold = -1
	} else {
		gcfg.Ref = agent.Ref
	}
	chain, err := guard.ChainFromSpec(sys, spec.Fallback, envCfg.MinFreqFrac)
	if err != nil {
		return nil, fmt.Errorf("server: tenant %q: %w", spec.Name, err)
	}
	t.guard, err = guard.New(primary, gcfg, chain...)
	if err != nil {
		return nil, fmt.Errorf("server: tenant %q: %w", spec.Name, err)
	}

	t.maxPlan = make([]float64, sys.N())
	for i, d := range sys.Devices {
		t.maxPlan[i] = d.MaxFreqHz
	}

	// Online continual learning: only DRL-primary tenants carry a loop
	// (there is no policy to fine-tune otherwise). The serving agent seeds
	// the loop's champion: the live DRL acts with its own copy of the
	// actor, and the loop only copies the champion's weights, so neither
	// writes what the other reads. Promotions swap the candidate's actor
	// into the live DRL under the tenant lock.
	if cfg.Online != nil && t.drl != nil && agent != nil {
		ocfg := *cfg.Online
		ocfg.Guard.Env = envCfg
		ocfg.Fallback = spec.Fallback
		ocfg.OnPromote = t.swapActor
		t.loop, err = online.NewLoop(sys, agent, ocfg)
		if err != nil {
			return nil, fmt.Errorf("server: tenant %q online loop: %w", spec.Name, err)
		}
		t.onlineCh = make(chan guard.Decision, 256)
	}

	// Admission and queue.
	rate, burst := spec.Rate, spec.Burst
	if rate == 0 {
		rate = cfg.Rate
	}
	if burst == 0 {
		burst = cfg.Burst
	}
	t.bucket = NewBucket(rate, burst, cfg.Now)
	t.queueCap = int64(spec.QueueCap)
	if t.queueCap == 0 {
		t.queueCap = int64(cfg.QueueCap)
	}
	t.turn = make(chan struct{}, 1)
	return t, nil
}

// freshAgent builds an untrained agent for the system's layout — full
// serving cost without a training run, for load tests and smoke checks.
// Deterministic in (sys, seed).
func freshAgent(sys *fl.System, seed int64) (*core.Agent, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	tr, err := core.NewTrainer(sys, cfg)
	if err != nil {
		return nil, err
	}
	return tr.Agent(), nil
}

// slowScheduler injects artificial actor latency — the chaos hook that
// drives the guard's watchdog in tests and smoke runs.
type slowScheduler struct {
	inner sched.Scheduler
	delay time.Duration
}

// Name implements sched.Scheduler (keeping the wrapped name so layer and
// audit attribution are unchanged).
func (s *slowScheduler) Name() string { return s.inner.Name() }

// Frequencies implements sched.Scheduler.
func (s *slowScheduler) Frequencies(ctx sched.Context) ([]float64, error) {
	time.Sleep(s.delay)
	return s.inner.Frequencies(ctx)
}

// mode derives the tenant's serving mode from its guard. Must hold t.mu.
func (t *Tenant) mode() Mode {
	if i, name := t.guard.Level(); i > 0 {
		return Mode(name)
	}
	return ModeGuarded
}

// trackLevel counts a move of the guard's first closed level to a lower
// one, which only a breaker trip causes, as a degrade transition. Must hold
// t.mu.
func (t *Tenant) trackLevel(s *Server) {
	i, _ := t.guard.Level()
	if i > t.level {
		s.counters.DegradeTransitions.Add(1)
	}
	t.level = i
}

// QueueLen returns the number of requests waiting for the tenant's turn.
func (t *Tenant) QueueLen() int { return int(t.waiting.Load()) }

// estWait estimates how long a request arriving now would wait before
// being served: the waiting requests plus itself, at the EWMA service
// time. Zero before the first decision (a cold tenant never sheds on
// estimates).
func (t *Tenant) estWait() time.Duration {
	ewma := time.Duration(t.ewmaNS.Load())
	return time.Duration(t.waiting.Load()+1) * ewma
}

// updateEWMA folds one service time into the estimate (α = 0.2).
func (t *Tenant) updateEWMA(d time.Duration) {
	old := t.ewmaNS.Load()
	if old == 0 {
		t.ewmaNS.Store(int64(d))
		return
	}
	t.ewmaNS.Store(old + (int64(d)-old)/5)
}

// start launches the tenant's online continual-learning goroutine, when
// configured. Called exactly once, after the tenant is installed in the
// registry.
func (t *Tenant) start() {
	if t.loop != nil {
		t.onlineWG.Add(1)
		go t.runOnline()
	}
}

// serve waits for the tenant's turn and decides req on the caller's
// goroutine while it holds the turn. A request past the queue bound is
// shed (503), and one whose deadline (req.deadline) passes, or whose
// client goes away (ctx), while it waits leaves at once (504); one whose
// deadline passes during its decision is answered 504 when the decision
// ends. retired reports that a reload retired the tenant before the
// request got the turn: the caller re-resolves the name.
func (t *Tenant) serve(ctx context.Context, s *Server, req *DecideRequest) (res callResult, retired bool) {
	if t.waiting.Add(1) > t.queueCap {
		t.waiting.Add(-1)
		return callResult{status: http.StatusServiceUnavailable, errMsg: "queue full", retryAfter: t.estWait()}, false
	}
	// A free turn is taken without a timer; a waiting request arms one.
	select {
	case t.turn <- struct{}{}:
	default:
		if !t.awaitTurn(ctx, req.deadline) {
			t.waiting.Add(-1)
			return timedOut, false
		}
	}
	t.waiting.Add(-1)
	defer func() { <-t.turn }()
	if t.retired {
		return callResult{}, true
	}
	t.accepted.Add(1)
	defer t.responded.Add(1)
	if req.expired(ctx) {
		// An expired request that got the turn does no work.
		return timedOut, false
	}
	start := s.now()
	res = t.decide(s, req)
	d := s.now().Sub(start)
	t.updateEWMA(d)
	s.hist.Observe(d)
	if req.expired(ctx) {
		return timedOut, false
	}
	return res, false
}

// awaitTurn blocks until the request takes the turn, which it reports, or
// until the deadline (zero for none) passes or ctx ends.
func (t *Tenant) awaitTurn(ctx context.Context, deadline time.Time) bool {
	var expire <-chan time.Time
	if !deadline.IsZero() {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		expire = timer.C
	}
	select {
	case t.turn <- struct{}{}:
		return true
	case <-expire:
	case <-ctx.Done():
	}
	return false
}

// retire takes the turn behind every request already waiting, so those
// decide on this tenant, then marks the tenant retired, so every later
// holder of the turn re-resolves the name, and stops the online
// goroutine. On return no request can decide on this tenant.
func (t *Tenant) retire() {
	t.turn <- struct{}{}
	t.retired = true
	<-t.turn
	t.stopOnline()
}

// stopOnline terminates the online goroutine once no request can decide
// on the tenant (deciders are its only senders).
func (t *Tenant) stopOnline() {
	if t.onlineCh != nil {
		close(t.onlineCh)
		t.onlineWG.Wait()
		t.onlineCh = nil
	}
}

// runOnline consumes streamed guard decisions off the serving path: the
// drift gate watches every score, replayable decisions fill the buffer,
// and a triggered retrain (fine-tune, checkpoint, shadow-eval, promote or
// roll back) runs here so decide latency never pays for it.
func (t *Tenant) runOnline() {
	defer t.onlineWG.Done()
	for d := range t.onlineCh {
		rep, err := t.loop.Ingest(d)
		if err != nil {
			t.onlineErrs.Add(1)
			continue
		}
		if rep != nil {
			t.onlineRetrains.Add(1)
			if rep.Promoted {
				t.onlinePromotions.Add(1)
			}
		}
	}
}

// swapActor is the loop's promotion hook: install the candidate's weights
// into the serving DRL under the tenant lock. Decisions in flight finish
// on the old weights; the next decision serves the new ones.
func (t *Tenant) swapActor(a *core.Agent) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drl.SwapPolicy(a.Policy)
}

// decide makes one decision (or a batch) through the tenant's guard. The
// guard sees the whole batch as consecutive serial decisions under one
// lock hold — batching amortizes the HTTP round trip without changing
// decision semantics.
func (t *Tenant) decide(s *Server, req *DecideRequest) callResult {
	t.mu.Lock()
	defer t.mu.Unlock()

	// A request that does not fit the fleet, or whose decisions would carry
	// the clock past MaxClockSec, is refused before it touches any tenant
	// state (the handler counts it as malformed).
	if len(req.LastBW) > 0 && len(req.LastBW) != t.sys.N() {
		return callResult{status: http.StatusBadRequest,
			errMsg: fmt.Sprintf("%d bandwidth observations for %d devices", len(req.LastBW), t.sys.N())}
	}
	if len(req.Down) > 0 && len(req.Down) != t.sys.N() {
		return callResult{status: http.StatusBadRequest,
			errMsg: fmt.Sprintf("%d down flags for %d devices", len(req.Down), t.sys.N())}
	}
	n := max(req.Count, 1)
	clock := t.clock
	if req.Clock != nil {
		clock = *req.Clock
	}
	end := clock
	for k := 0; k < n; k++ { // decideOne's own additions, so end is exact
		end += t.tick()
	}
	if end > MaxClockSec {
		return callResult{status: http.StatusBadRequest,
			errMsg: fmt.Sprintf("%d decisions from clock %v would end at %v, past %v", n, clock, end, float64(MaxClockSec))}
	}

	if req.ObservedCost != nil {
		// Close the realized-cost loop on the previous decision before
		// pricing the next one.
		t.guard.Observe(fl.IterationStats{Cost: *req.ObservedCost})
		t.trackLevel(s)
	}
	t.clock = clock

	resp := &DecideResponse{Iter: t.iter, Clock: t.clock, Count: n}
	if n > 1 {
		resp.Plans = make([][]float64, 0, n)
	}
	for k := 0; k < n; k++ {
		// Realized-bandwidth/down observations apply to the first
		// decision of a batch; later ones are forecast from the traces.
		lastBW, down := req.LastBW, req.Down
		if k > 0 {
			lastBW, down = nil, nil
		}
		fs, layer := t.decideOne(s, sched.Context{
			Sys: t.sys, Clock: t.clock, Iter: t.iter, LastBW: lastBW, Down: down,
		})
		resp.Freqs, resp.Layer = fs, layer
		if n > 1 {
			resp.Plans = append(resp.Plans, fs)
		}
	}
	resp.Mode = t.mode().String()
	return callResult{status: http.StatusOK, plan: resp}
}

// tick is the clock advance of one decision.
func (t *Tenant) tick() float64 {
	if t.spec.TickSec == 0 {
		return 10
	}
	return t.spec.TickSec
}

// decideOne serves one decision through the guard. Must hold t.mu. It
// cannot fail: a guard error falls through to the max-frequency plan.
func (t *Tenant) decideOne(s *Server, ctx sched.Context) (fs []float64, layer string) {
	fs, err := t.guard.Frequencies(ctx)
	if err != nil {
		// Terminal backstop: the max-frequency plan cannot fail, so the
		// caller still gets a valid (if expensive) plan.
		s.counters.Errors.Add(1)
		fs = append([]float64(nil), t.maxPlan...)
		layer = "maxfreq"
	} else if d, ok := t.guard.Audit().Last(); ok {
		layer = d.Layer
		if t.onlineCh != nil {
			// Stream the decision to the continual-learning goroutine; a
			// full channel drops the sample (counted) rather than ever
			// stalling the decide path.
			select {
			case t.onlineCh <- d:
			default:
				t.onlineDropped.Add(1)
			}
		}
	}

	t.iter++
	t.clock += t.tick()

	t.trackLevel(s)
	s.counters.Decisions.Add(1)
	if layer != t.primary {
		s.counters.Degraded.Add(1)
	}
	return fs, layer
}

// TenantStats is a tenant's row in /v1/stats.
type TenantStats struct {
	Name      string         `json:"name"`
	N         int            `json:"n"`
	Primary   string         `json:"primary"`
	Mode      string         `json:"mode"`
	Decisions int            `json:"decisions"`
	Accepted  int64          `json:"accepted"`
	Responded int64          `json:"responded"`
	QueueLen  int            `json:"queue_len"`
	Served    map[string]int `json:"served"`
	Events    map[string]int `json:"events,omitempty"`
	// Online continual-learning counters (present only when the loop is
	// enabled for this tenant).
	OnlineRetrains   int64 `json:"online_retrains,omitempty"`
	OnlinePromotions int64 `json:"online_promotions,omitempty"`
	OnlineDropped    int64 `json:"online_dropped,omitempty"`
	OnlineErrors     int64 `json:"online_errors,omitempty"`
}

// Stats snapshots the tenant for the stats endpoint.
func (t *Tenant) Stats() TenantStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TenantStats{
		Name:      t.spec.Name,
		N:         t.sys.N(),
		Primary:   t.primary,
		Mode:      t.mode().String(),
		Decisions: t.iter,
		Accepted:  t.accepted.Load(),
		Responded: t.responded.Load(),
		QueueLen:  t.QueueLen(),
		Served:    t.guard.Audit().ServedCounts(),
		Events:    t.guard.Audit().EventCounts(),
	}
	if t.loop != nil {
		st.OnlineRetrains = t.onlineRetrains.Load()
		st.OnlinePromotions = t.onlinePromotions.Load()
		st.OnlineDropped = t.onlineDropped.Load()
		st.OnlineErrors = t.onlineErrs.Load()
	}
	return st
}

// flushAudit writes the tenant's audit (summary table plus canonical
// decision lines) to w. Byte-stable for a fixed per-tenant request
// sequence — the drain test compares these bytes across identical runs.
func (t *Tenant) flushAudit(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.guard.Audit().Render(w)
}
