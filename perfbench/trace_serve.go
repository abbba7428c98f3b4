package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/guard"
	"repro/internal/rl"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/tensor"
	"repro/perfbench/stat"
)

// The traced serving run. A fixed-rate phase on a fresh server gives the
// server-side numbers (decide-time quantiles, queue depth, degraded and shed
// shares, guard trips) and the generator's lateness. Then one per-tenant
// request sequence is replayed serially at deeper and deeper public entry
// points, each on fresh state so the decisions repeat:
//
//  1. loopback HTTP (http.rtt);
//  2. Server.Handler().ServeHTTP in process (server.handler);
//  3. DecodeDecideRequest and the response encode (server.decode/encode);
//  4. guard.Guard.Frequencies on a guard built as the server builds a
//     tenant's (core.Agent.GuardedScheduler on the same fresh agent);
//  5. sched.DRL.Frequencies;
//  6. env.BuildStateInto and the policy's MeanInto.
//
// A layer's self time is the difference between adjacent levels; what the
// handler spends outside decode, encode and the guard (admission, queue
// handoff, the tenant worker) is serve.unattributed_share.

// replayReq is one request of the serial replay.
type replayReq struct{ tenant, seq int }

func replayOrder(sh serveShape, seed int64) []replayReq {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	next := make([]int, sh.tenants)
	out := make([]replayReq, sh.replay)
	for i := range out {
		t := rng.Intn(sh.tenants)
		out[i] = replayReq{tenant: t, seq: next[t]}
		next[t]++
	}
	return out
}

// replayBlock alternates traced and untraced blocks of the HTTP replay so
// the cost of the spans themselves can be read off.
const replayBlock = 64

func traceServe(o runOpts, out *outcome, sh serveShape, seqs []tenantReqs, body func(int, int) []byte) (*outcome, error) {
	if err := tracedFixedPhase(o, out, sh, seqs, body); err != nil {
		return nil, err
	}
	order := replayOrder(sh, o.seed)
	t := newTracer(8 * len(order))

	// Level 1: serial loopback HTTP. Odd blocks time each request (spans),
	// even blocks time only the block, for the tracing overhead.
	srv, err := newServer(sh)
	if err != nil {
		return nil, err
	}
	ls, err := listen(srv)
	if err != nil {
		return nil, err
	}
	gen := newLoadGen(ls.url, 1, body)
	client := gen.clients[0]
	httpBodies := make([][]byte, len(order))
	var spanned, plain time.Duration
	var spannedN, plainN int
	for b := 0; b*replayBlock < len(order); b++ {
		lo, hi := b*replayBlock, (b+1)*replayBlock
		if hi > len(order) {
			hi = len(order)
		}
		traced := b%2 == 1
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			r := order[i]
			s := -1
			if traced {
				s = t.begin("http.rtt", -1)
			}
			status, resp := gen.post(client, body(r.tenant, r.seq))
			if traced {
				t.end(s)
			}
			out.attempted++
			if status != http.StatusOK {
				out.failed++
				out.check(false, "replay request %d: status %d: %s", i, status, strings.TrimSpace(string(resp)))
				continue
			}
			httpBodies[i] = resp
			checkPlan(out, resp, seqs[r.tenant])
		}
		if traced {
			spanned += time.Since(t0)
			spannedN += hi - lo
		} else {
			plain += time.Since(t0)
			plainN += hi - lo
		}
	}
	gen.close()
	if err := drain(out, srv, ls); err != nil {
		return nil, err
	}
	srv, ls = nil, nil
	release()

	// Level 2: the same sequence through ServeHTTP in process.
	if srv, err = newServer(sh); err != nil {
		return nil, err
	}
	h := srv.Handler()
	for i, r := range order {
		req := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(body(r.tenant, r.seq)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s := t.begin("server.handler", -1)
		h.ServeHTTP(rec, req)
		t.end(s)
		out.check(bytes.Equal(rec.Body.Bytes(), httpBodies[i]),
			"replay request %d: in-process response %q differs from loopback %q", i, rec.Body.Bytes(), httpBodies[i])
	}
	if err := drain(out, srv, nil); err != nil {
		return nil, err
	}
	srv = nil
	release()

	// Level 3: decode each request, encode each response as the handler does.
	resps := make([]*server.DecideResponse, len(order))
	var enc bytes.Buffer
	for i, r := range order {
		s := t.begin("server.decode", -1)
		_, err := server.DecodeDecideRequest(body(r.tenant, r.seq))
		t.end(s)
		if err != nil {
			return nil, fmt.Errorf("replay request %d: %w", i, err)
		}
		if resps[i] = checkPlan(out, httpBodies[i], seqs[r.tenant]); resps[i] == nil {
			continue
		}
		enc.Reset()
		s = t.begin("server.encode", -1)
		err = json.NewEncoder(&enc).Encode(resps[i])
		t.end(s)
		if err != nil {
			return nil, err
		}
		out.check(bytes.Equal(enc.Bytes(), httpBodies[i]), "replay request %d: re-encoded response differs", i)
	}

	// Levels 4-6, tenant by tenant on the server's own fresh agents.
	for ti := 0; ti < sh.tenants; ti++ {
		if err := replayTenant(out, t, sh, ti, order, seqs[ti], resps); err != nil {
			return nil, err
		}
		release()
	}

	st, _ := t.stats()
	rtt, handler := st["http.rtt"].meanUS(), st["server.handler"].meanUS()
	decode, encode, gd := st["server.decode"].meanUS(), st["server.encode"].meanUS(), st["guard.decide"].meanUS()
	out.set("http.rtt_us", rtt, "us")
	out.set("server.handler_us", handler, "us")
	out.set("server.decode_us", decode, "us")
	out.set("server.encode_us", encode, "us")
	out.set("guard.decide_us", gd, "us")
	out.set("sched.drl_us", st["sched.drl"].meanUS(), "us")
	out.set("env.state_us", st["env.state"].meanUS(), "us")
	out.set("rl.mean_us", st["rl.mean"].meanUS(), "us")
	out.set("serve.unattributed_share", (handler-decode-encode-gd)/rtt, "share")
	out.set("tracing.overhead_share", (float64(spanned)/float64(spannedN))/(float64(plain)/float64(plainN))-1, "share")
	fmt.Printf("%s serial replay of %d requests, mean per request:\n", sh.name, len(order))
	fmt.Printf("  transport (rtt - handler) %9.2fus\n", rtt-handler)
	fmt.Printf("  handler other             %9.2fus\n", handler-decode-encode-gd)
	fmt.Printf("  decode                    %9.2fus\n", decode)
	fmt.Printf("  encode                    %9.2fus\n", encode)
	fmt.Printf("  guard (own)               %9.2fus\n", gd-st["sched.drl"].meanUS())
	fmt.Printf("  sched.drl (own)           %9.2fus\n", st["sched.drl"].meanUS()-st["env.state"].meanUS()-st["rl.mean"].meanUS())
	fmt.Printf("  env.state                 %9.2fus\n", st["env.state"].meanUS())
	fmt.Printf("  rl.mean                   %9.2fus\n", st["rl.mean"].meanUS())
	return out, nil
}

// tracedFixedPhase runs the fixed-rate phase on a fresh server and reads
// the server-side numbers from it.
func tracedFixedPhase(o runOpts, out *outcome, sh serveShape, seqs []tenantReqs, body func(int, int) []byte) error {
	srv, err := newServer(sh)
	if err != nil {
		return err
	}
	ls, err := listen(srv)
	if err != nil {
		return err
	}
	gen := newLoadGen(ls.url, serveConns, body)
	gen.queueLen = func() int {
		n := 0
		for i := 0; i < sh.tenants; i++ {
			n += srv.Tenant(tenantSpec(sh, i).Name).QueueLen()
		}
		return n
	}
	rng := rand.New(rand.NewSource(o.seed))
	next := make([]int, sh.tenants)
	var n, ok int64
	runPhase := func(rate float64, dur time.Duration) phase {
		reqs := schedule(rng, rate, dur, sh.tenants, next)
		res := gen.run(reqs, dur)
		checkResponses(out, reqs, res, seqs)
		dn, dok := answered(res)
		n, ok = n+dn, ok+dok
		return summarize(rate, reqs, res, dur)
	}
	p := runPhase(sh.fixedRate, fixedDuration(o, sh))
	fmt.Println("fixed  ", p)
	if err := tailSupported(p.sent); err != nil {
		return err
	}
	// The counters below are read before the search adds its own requests.
	c := srv.Counters()
	decided, degraded := c.Decisions.Load(), c.Degraded.Load()
	requests := c.Requests.Load()
	shed := c.ShedRate.Load() + c.ShedQueue.Load() + c.ShedDeadline.Load() + c.ShedDrain.Load()
	trips := 0
	for i := 0; i < sh.tenants; i++ {
		for ev, k := range srv.Tenant(tenantSpec(sh, i).Name).Stats().Events {
			if strings.HasSuffix(ev, ":trip") {
				trips += k
			}
		}
	}
	out.set("server.decide_p50_us", float64(srv.Hist().Quantile(0.5))/1e3, "us")
	out.set("server.decide_p99_us", float64(srv.Hist().Quantile(0.99))/1e3, "us")
	out.set("server.queue_max", float64(p.queueMax), "count")
	out.set("server.degraded_share", float64(degraded)/float64(decided), "share")
	out.set("server.shed_share", float64(shed)/float64(requests), "share")
	out.set("guard.trips", float64(trips), "count")
	out.set("load.late_p50_us", p.lateP50, "us")
	out.set("load.late_p99_us", p.lateP99, "us")
	out.set("load.p99_ms", p.p99, "ms")

	// The highest offered rate at which p99 <= 10 ms and the backlog does
	// not grow. One probe's p99 moves too much from run to run on a shared
	// 2-vCPU VM for this to gate a change, so it is reported here.
	limitMS := float64(latencyLimit) / 1e6
	maxRate := stat.MaxRate(sh.searchFrom, sh.searchTo, searchGrow, searchExtra, limitMS, func(rate float64) stat.Probe {
		pr := runPhase(rate, probeDuration(rate))
		fmt.Println("probe  ", pr)
		return stat.Probe{Rate: rate, P99: pr.p99, Unstable: pr.unstable(serveConns)}
	})
	out.set("load.max_rps", maxRate, "1/s")
	if err := reconcile(out, ls.url, n, ok); err != nil {
		return err
	}
	gen.close()
	if err := drain(out, srv, ls); err != nil {
		return err
	}
	release()
	return nil
}

// replayTenant replays one tenant's requests at levels 4-6. The guard's
// plans must equal the HTTP plans up to the tenant's first degrade
// transition; after it the server's ladder, not the guard, picks the layer.
func replayTenant(out *outcome, t *tracer, sh serveShape, ti int, order []replayReq,
	tr tenantReqs, resps []*server.DecideResponse) error {
	spec := tenantSpec(sh, ti)
	sys, err := tenantSystem(spec)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = spec.Seed
	trainer, err := core.NewTrainer(sys, cfg)
	if err != nil {
		return err
	}
	agent := trainer.Agent()
	g, err := agent.GuardedScheduler(sys, guard.Config{}, spec.Fallback)
	if err != nil {
		return err
	}
	drl, err := agent.Scheduler()
	if err != nil {
		return err
	}
	policy, ok := agent.Policy.(*rl.GaussianPolicy)
	if !ok {
		return fmt.Errorf("tenant %s: fresh policy is %T", spec.Name, agent.Policy)
	}
	comparing := true
	iter := 0
	var state tensor.Vector
	var scratch []float64
	action := tensor.NewVector(sys.N())
	for i, r := range order {
		if r.tenant != ti {
			continue
		}
		k := r.seq % sh.seqLen
		ctx := sched.Context{Sys: sys, Clock: tr.clocks[k], Iter: iter, LastBW: tr.lastBW[k]}
		iter++
		s := t.begin("guard.decide", -1)
		plan, err := g.Frequencies(ctx)
		t.end(s)
		if err != nil {
			return fmt.Errorf("tenant %s guard: %w", spec.Name, err)
		}
		if comparing && resps[i] != nil {
			out.check(equalPlans(plan, resps[i].Freqs), "tenant %s request %d: guard plan %v, HTTP plan %v", spec.Name, i, plan, resps[i].Freqs)
			comparing = resps[i].Mode == server.ModeGuarded.String()
		}
		s = t.begin("sched.drl", -1)
		_, err = drl.Frequencies(ctx)
		t.end(s)
		if err != nil {
			return fmt.Errorf("tenant %s drl: %w", spec.Name, err)
		}
		s = t.begin("env.state", -1)
		state, scratch = env.BuildStateInto(state, scratch, sys, ctx.Clock, agent.EnvCfg)
		t.end(s)
		s = t.begin("rl.mean", -1)
		policy.MeanInto(action, state)
		t.end(s)
	}
	return nil
}

func equalPlans(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
