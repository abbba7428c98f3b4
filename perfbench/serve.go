package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/env"
	"repro/internal/experiments"
	"repro/internal/fl"
	"repro/internal/server"
	"repro/perfbench/stat"
)

// serveShape is one serving workload: an in-process server.New on a
// loopback listener, tenants × devices with the fresh primary and the
// default guard chain, driven by open-loop Poisson /v1/decide traffic at
// batch 1 over two keep-alive connections.
type serveShape struct {
	name             string
	tenants, devices int
	// fixedRate is the offered rate of the latency phase (well below
	// capacity); searchFrom and searchTo bound the traced max-rate search,
	// and searchTo the closed-loop phase's request draw.
	fixedRate, searchFrom, searchTo float64
	// seqLen is the number of distinct requests per tenant (the sequence
	// repeats after it); replay is the request count of each traced replay.
	seqLen, replay int
	// setups is how many server set-ups setup_s takes the median of.
	setups int
}

var (
	serveTestbed = serveShape{name: "serve-testbed", tenants: 8, devices: 3,
		fixedRate: 2000, searchFrom: 3000, searchTo: 40000, seqLen: 2048, replay: 4000, setups: 15}
	serveFleet = serveShape{name: "serve-fleet", tenants: 4, devices: 1000,
		fixedRate: 250, searchFrom: 400, searchTo: 5000, seqLen: 256, replay: 600, setups: 3}
)

const (
	serveConns   = 2
	searchGrow   = 1.5
	searchExtra  = 3 // probes inside the bracket the growth found
	warmupPhase  = 500 * time.Millisecond
	minProbe     = 800 * time.Millisecond
	probeSamples = 1200 // a p99 with ten samples beyond it, with Poisson slack
)

// tenantSpec is tenant i's registration. The tenant population is fixed,
// as a deployment's is; the benchmark seed draws the traffic (arrival
// times, tenant choice, the decision clocks each tenant asks about).
func tenantSpec(sh serveShape, i int) server.TenantSpec {
	return server.TenantSpec{
		Name: fmt.Sprintf("t%d", i), N: sh.devices,
		Seed: int64(i) + 1, Primary: server.PrimaryFresh,
	}
}

// tenantSystem builds the FL system the server builds for a tenant, so the
// benchmark can read the tenant's own traces.
func tenantSystem(spec server.TenantSpec) (*fl.System, error) {
	sc := experiments.TestbedScenario(spec.Seed)
	sc.N = spec.N
	return sc.Build()
}

// tenantReqs is one tenant's request sequence: each request pins the
// decision clock and reports the realized mean bandwidth of every device
// over the previous slot, read from the tenant's traces.
type tenantReqs struct {
	bodies [][]byte
	clocks []float64
	lastBW [][]float64
	floor  []float64
	max    []float64
}

func buildRequests(sh serveShape, seed int64) ([]tenantReqs, error) {
	envCfg := env.DefaultConfig()
	slot := envCfg.SlotSec
	out := make([]tenantReqs, sh.tenants)
	rng := rand.New(rand.NewSource(seed))
	for i := range out {
		spec := tenantSpec(sh, i)
		sys, err := tenantSystem(spec)
		if err != nil {
			return nil, err
		}
		tr := &out[i]
		for _, d := range sys.Devices {
			tr.floor = append(tr.floor, envCfg.MinFreqFrac*d.MaxFreqHz)
			tr.max = append(tr.max, d.MaxFreqHz)
		}
		// Clocks walk slot by slot from a seeded start in the first half of
		// the traces and wrap inside it.
		half := sys.Traces[0].Duration() / 2
		lo := float64(envCfg.History+1) * slot
		steps := int((half - lo) / slot)
		first := rng.Intn(steps)
		for k := 0; k < sh.seqLen; k++ {
			clock := lo + float64((first+k)%steps)*slot
			bw := make([]float64, sys.N())
			for d, t := range sys.Traces {
				bw[d] = t.Average(clock-slot, clock)
			}
			c := clock
			body, err := json.Marshal(server.DecideRequest{Tenant: spec.Name, Clock: &c, LastBW: bw})
			if err != nil {
				return nil, err
			}
			tr.bodies = append(tr.bodies, body)
			tr.clocks = append(tr.clocks, clock)
			tr.lastBW = append(tr.lastBW, bw)
		}
	}
	return out, nil
}

// liveServer is a server's loopback listener.
type liveServer struct {
	hs     *http.Server
	url    string
	served chan error
}

// newServer builds and registers every tenant (the set-up setup_s times).
func newServer(sh serveShape) (*server.Server, error) {
	s, err := server.New(server.DefaultServerConfig())
	if err != nil {
		return nil, err
	}
	for i := 0; i < sh.tenants; i++ {
		if _, err := s.Register(tenantSpec(sh, i)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// listen serves s on a loopback port.
func listen(s *server.Server) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{hs: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, nil
}

// drain runs the closing drain and checks it answered every accepted
// request; ls is nil for a server that never listened.
func drain(out *outcome, s *server.Server, ls *liveServer) error {
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if ls != nil {
		if err := ls.hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("listener shutdown: %w", err)
		}
		if err := <-ls.served; !errors.Is(err, http.ErrServerClosed) {
			return fmt.Errorf("listener: %w", err)
		}
	}
	rep, err := s.FinishDrain(ctx)
	if err != nil {
		return err
	}
	out.check(rep.Accepted == rep.Responded && rep.Dropped == 0,
		"drain: accepted %d, responded %d, dropped %d", rep.Accepted, rep.Responded, rep.Dropped)
	return nil
}

// release drops a finished server's memory before the next one is built.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

// checkResponses applies the per-response checks to one phase: every 200
// carries N finite frequencies within each device's [floor, max] (the
// floor being MinFreqFrac·max > 0); anything else is a failed operation.
func checkResponses(out *outcome, reqs []loadReq, res []loadRes, seqs []tenantReqs) {
	for i, r := range res {
		if !r.sent {
			continue
		}
		out.attempted++
		if r.status != http.StatusOK {
			out.failed++
			out.check(false, "request %d (tenant %d): status %d: %s", i, reqs[i].tenant, r.status, strings.TrimSpace(string(r.body)))
			continue
		}
		checkPlan(out, r.body, seqs[reqs[i].tenant])
	}
}

// checkPlan decodes one 200 body and checks its plan.
func checkPlan(out *outcome, body []byte, tr tenantReqs) *server.DecideResponse {
	var resp server.DecideResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		out.failed++
		out.check(false, "undecodable response %q: %v", body, err)
		return nil
	}
	ok := len(resp.Freqs) == len(tr.max)
	for d := 0; ok && d < len(resp.Freqs); d++ {
		f := resp.Freqs[d]
		ok = !math.IsNaN(f) && f >= tr.floor[d] && f <= tr.max[d] && f > 0
	}
	if !ok {
		out.failed++
		out.check(false, "plan outside the action box: %q", body)
	}
	return &resp
}

// reconcile checks the /v1/stats counters: every request the clients saw
// answered landed in exactly one terminal counter, and the decisions are
// the 200s.
func reconcile(out *outcome, url string, answered, ok int64) error {
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var body struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	c := body.Counters
	terminal := c["decisions"] + c["shed_rate"] + c["shed_queue"] + c["shed_deadline"] + c["shed_drain"] +
		c["malformed"] + c["not_found"] + c["timeouts"]
	out.check(c["requests"] == terminal, "stats: %d requests but %d in terminal counters (%v)", c["requests"], terminal, c)
	out.check(c["requests"] == answered, "stats: %d requests, clients saw %d answered", c["requests"], answered)
	out.check(c["decisions"] == ok, "stats: %d decisions, clients saw %d 200s", c["decisions"], ok)
	return nil
}

// answered counts the sent requests that got an HTTP status, and the 200s.
func answered(res []loadRes) (n, ok int64) {
	for _, r := range res {
		if r.status != 0 {
			n++
		}
		if r.status == http.StatusOK {
			ok++
		}
	}
	return n, ok
}

// fixedDuration is the fixed-rate phase's length: half the run, and at
// least two probes' worth of requests (the traced run reads a p99 off it).
func fixedDuration(o runOpts, sh serveShape) time.Duration {
	if d := 2 * probeDuration(sh.fixedRate); d > o.seconds/2 {
		return d
	}
	return o.seconds / 2
}

// saturateDur is the closed-loop phase's length.
func saturateDur(o runOpts) time.Duration { return o.seconds / 4 }

// closedLoopWindows is how many equal windows the closed-loop phase is cut
// into; its throughput is the median of theirs, so a stall of the machine
// costs the windows it falls in, not the phase.
const closedLoopWindows = 50

// closedLoopRate is the median over the phase's windows of the 200s
// completed per second.
func closedLoopRate(res []loadRes, dur time.Duration) float64 {
	w := dur / closedLoopWindows
	counts := make([]float64, closedLoopWindows)
	for _, r := range res {
		if r.status == http.StatusOK && r.done < dur {
			counts[r.done/w]++
		}
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return stat.Median(counts)
}

// probeDuration gives a probe enough requests for its p99.
func probeDuration(rate float64) time.Duration {
	d := time.Duration(probeSamples / rate * float64(time.Second))
	if d < minProbe {
		d = minProbe
	}
	return d
}

// servedCost is the mean realized eq. 9 cost of the served plans: each
// plan run as one FL iteration at its decision clock on the tenant's own
// traces.
func servedCost(sh serveShape, reqs []loadReq, res []loadRes, seqs []tenantReqs) (float64, error) {
	sum, n := 0.0, 0
	for i := 0; i < sh.tenants; i++ {
		sys, err := tenantSystem(tenantSpec(sh, i))
		if err != nil {
			return 0, err
		}
		for j, r := range res {
			if reqs[j].tenant != i || r.status != http.StatusOK {
				continue
			}
			var resp server.DecideResponse
			if err := json.Unmarshal(r.body, &resp); err != nil {
				return 0, err
			}
			it, err := sys.RunIteration(resp.Iter, seqs[i].clocks[reqs[j].seq%sh.seqLen], resp.Freqs)
			if err != nil {
				return 0, err
			}
			sum += it.Cost
			n++
		}
	}
	return sum / float64(n), nil
}

func runServe(o runOpts, sh serveShape) (*outcome, error) {
	out := &outcome{}
	seqs, err := buildRequests(sh, o.seed)
	if err != nil {
		return nil, err
	}
	body := func(t, k int) []byte { return seqs[t].bodies[k%sh.seqLen] }
	if o.trace {
		return traceServe(o, out, sh, seqs, body)
	}

	// Set-up: server construction and tenant registration, several times.
	var setups []float64
	var srv *server.Server
	for i := 0; i < sh.setups; i++ {
		if srv != nil {
			if err := drain(out, srv, nil); err != nil {
				return nil, err
			}
			srv = nil
			release()
		}
		t0 := time.Now()
		if srv, err = newServer(sh); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ls, err := listen(srv)
	if err != nil {
		return nil, err
	}
	gen := newLoadGen(ls.url, serveConns, body)
	defer gen.close()
	rng := rand.New(rand.NewSource(o.seed))
	next := make([]int, sh.tenants)
	var allAnswered, allOK int64
	runPhase := func(rate float64, dur time.Duration) ([]loadReq, []loadRes, phase) {
		reqs := schedule(rng, rate, dur, sh.tenants, next)
		res := gen.run(reqs, dur)
		checkResponses(out, reqs, res, seqs)
		n, ok := answered(res)
		allAnswered += n
		allOK += ok
		return reqs, res, summarize(rate, reqs, res, dur)
	}

	runPhase(sh.fixedRate, warmupPhase)
	fixedReqs, fixedRes, fixed := runPhase(sh.fixedRate, fixedDuration(o, sh))
	fmt.Println("fixed  ", fixed)
	out.check(fixed.ok == len(fixedReqs), "fixed-rate phase: %d of %d requests succeeded", fixed.ok, len(fixedReqs))

	// Throughput with both connections kept busy: the server's capacity
	// at batch 1.
	satReqs := draw(rng, int(sh.searchTo*saturateDur(o).Seconds()), sh.tenants, next)
	satRes, took := gen.saturate(satReqs, saturateDur(o))
	checkResponses(out, satReqs, satRes, seqs)
	n, ok := answered(satRes)
	allAnswered += n
	allOK += ok
	throughput := closedLoopRate(satRes, saturateDur(o))
	fmt.Printf("closed loop over %d connections: %d requests in %.2fs, median %.0f/s over %d windows\n",
		serveConns, ok, took.Seconds(), throughput, closedLoopWindows)

	if err := reconcile(out, ls.url, allAnswered, allOK); err != nil {
		return nil, err
	}
	gen.close()
	if err := drain(out, srv, ls); err != nil {
		return nil, err
	}
	srv, ls = nil, nil
	release()
	cost, err := servedCost(sh, fixedReqs, fixedRes, seqs)
	if err != nil {
		return nil, err
	}
	out.set("setup_s", stat.Median(setups), "s")
	out.set("ops_per_s", throughput, "1/s")
	out.set("p50_ms", fixed.p50, "ms")
	out.set("cost", cost, "eq9")
	return out, nil
}
