package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/perfbench/stat"
)

// The open-loop generator. Requests arrive on a seeded Poisson schedule,
// whatever the server does, and go out over a fixed set of keep-alive
// connections, each request on the first connection that is free.
//
// A sub-millisecond sleep wakes about a millisecond late on small VMs, so
// the generator cannot send every request exactly when it is due. It
// therefore charges each request from due + shift, where shift is the
// delay the generator itself caused:
//
//   - a connection was free before the request fell due: everything
//     between due and send is the generator's (an oversleep), so shift is
//     that whole delay;
//   - every connection was still busy: the wait behind the previous
//     request is charged to this one, except for the part the previous
//     request's own shift pushed it back, so shift is the lesser of the
//     sending connection's previous shift and the actual delay.
//
// The shifts are reported as the generator's lateness.
const (
	latencyLimit = 10 * time.Millisecond // the p99 limit of the max-rate search
	drainGrace   = 2 * time.Second       // unsent requests after this are over the limit
)

// loadReq is one scheduled request.
type loadReq struct {
	tenant, seq int
	due         time.Duration
}

// loadRes is what happened to it: whether it was sent, its HTTP status
// (0 for a transport error), when it was charged from and completed, the
// generator's share of its delay, the response body and, in traced runs,
// the server's queue depth when it was sent.
type loadRes struct {
	sent         bool
	status       int
	origin, done time.Duration
	shift        time.Duration
	body         []byte
	queueAtSend  int
}

func (r loadRes) latencyMS() float64 {
	if r.status != http.StatusOK {
		return math.Inf(1)
	}
	return float64(r.done-r.origin) / 1e6
}

// schedule draws a Poisson arrival schedule at rate over dur, each request
// for a uniformly drawn tenant; next[t] is the tenant's sequence position,
// advanced as requests are drawn.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, tenants int, next []int) []loadReq {
	var reqs []loadReq
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		due := time.Duration(at * float64(time.Second))
		if due >= dur {
			return reqs
		}
		t := rng.Intn(tenants)
		reqs = append(reqs, loadReq{tenant: t, seq: next[t], due: due})
		next[t]++
	}
}

// draw picks n requests, each for a uniformly drawn tenant, all due at
// once (the closed-loop phase sends them as fast as it can).
func draw(rng *rand.Rand, n, tenants int, next []int) []loadReq {
	reqs := make([]loadReq, n)
	for i := range reqs {
		t := rng.Intn(tenants)
		reqs[i] = loadReq{tenant: t, seq: next[t]}
		next[t]++
	}
	return reqs
}

// loadGen sends requests over its connections.
type loadGen struct {
	url     string
	clients []*http.Client
	body    func(tenant, seq int) []byte
	// queueLen, when set, is sampled before each send (traced runs).
	queueLen func() int
}

func newLoadGen(url string, conns int, body func(tenant, seq int) []byte) *loadGen {
	g := &loadGen{url: url, body: body}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: 5 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return g
}

func (g *loadGen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// run sends the schedule and returns one result per request. Each sender
// takes the next request in due order as soon as it is free, so a request
// waits only when every connection is busy. Requests not sent within
// drainGrace of the schedule's end are left unsent.
func (g *loadGen) run(reqs []loadReq, dur time.Duration) []loadRes {
	res := make([]loadRes, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := range g.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g.send(g.clients[c], &next, reqs, res, start, dur)
		}(c)
	}
	wg.Wait()
	return res
}

// saturate keeps every connection busy for dur: each sender posts the next
// request as soon as its previous one completes. It returns each request's
// result (unsent past dur) and the time the phase took.
func (g *loadGen) saturate(reqs []loadReq, dur time.Duration) ([]loadRes, time.Duration) {
	res := make([]loadRes, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for _, client := range g.clients {
		wg.Add(1)
		go func(client *http.Client) {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out := &res[i]
				out.sent, out.origin = true, time.Since(start)
				out.status, out.body = g.post(client, g.body(reqs[i].tenant, reqs[i].seq))
				out.done = time.Since(start)
			}
		}(client)
	}
	wg.Wait()
	return res, time.Since(start)
}

// send is one connection's sender.
func (g *loadGen) send(client *http.Client, next *atomic.Int64, reqs []loadReq, res []loadRes, start time.Time, dur time.Duration) {
	var prevShift time.Duration
	for {
		i := int(next.Add(1) - 1)
		if i >= len(reqs) {
			return
		}
		r := reqs[i]
		idle := false
		if now := time.Since(start); now < r.due {
			idle = true
			time.Sleep(r.due - now)
		}
		sendAt := time.Since(start)
		if sendAt > dur+drainGrace {
			return
		}
		shift := sendAt - r.due
		if !idle && prevShift < shift {
			shift = prevShift
		}
		out := &res[i]
		out.sent, out.shift, out.origin = true, shift, r.due+shift
		if g.queueLen != nil {
			out.queueAtSend = g.queueLen()
		}
		out.status, out.body = g.post(client, g.body(r.tenant, r.seq))
		out.done = time.Since(start)
		prevShift = shift
	}
}

// post sends one decide request and reads the whole response.
func (g *loadGen) post(client *http.Client, body []byte) (int, []byte) {
	resp, err := client.Post(g.url+"/v1/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, b
}

// phase summarizes one schedule's results.
type phase struct {
	rate                   float64
	sent, ok, unsent       int
	p50, p90, p99          float64 // ms, failures as +Inf
	lateP50, lateP99       float64 // µs
	backlogMid, backlogEnd int
	queueMax               int
}

func summarize(rate float64, reqs []loadReq, res []loadRes, dur time.Duration) phase {
	p := phase{rate: rate}
	lat := make([]float64, 0, len(res))
	var late []float64
	due := make([]time.Duration, len(res))
	done := make([]time.Duration, len(res))
	for i, r := range res {
		due[i] = reqs[i].due
		done[i] = time.Duration(math.MaxInt64)
		if !r.sent {
			p.unsent++
			lat = append(lat, math.Inf(1))
			continue
		}
		p.sent++
		if r.status == http.StatusOK {
			p.ok++
			done[i] = r.done
		}
		lat = append(lat, r.latencyMS())
		late = append(late, float64(r.shift)/1e3)
		if r.queueAtSend > p.queueMax {
			p.queueMax = r.queueAtSend
		}
	}
	sort.Float64s(lat)
	p.p50, p.p90, p.p99 = stat.Nearest(lat, 0.5), stat.Nearest(lat, 0.9), stat.Nearest(lat, 0.99)
	if len(late) > 0 {
		p.lateP50, p.lateP99 = percentile(late, 0.5), percentile(late, 0.99)
	}
	p.backlogMid = stat.Backlog(due, done, dur/2)
	p.backlogEnd = stat.Backlog(due, done, dur)
	return p
}

// unstable reports a rate past capacity: requests left unsent, or a
// backlog (requests due but not done) that grows from mid-run to the end
// beyond what the connections hold plus a latency limit's worth of
// arrivals.
func (p phase) unstable(conns int) bool {
	allowance := conns + int(p.rate*latencyLimit.Seconds())
	return p.unsent > 0 || stat.BacklogGrows(p.backlogMid, p.backlogEnd, allowance)
}

func (p phase) String() string {
	return fmt.Sprintf("rate %7.0f/s: sent %6d ok %6d unsent %4d  p50 %7.3fms p90 %7.3fms p99 %8.3fms  late p50 %5.0fus p99 %5.0fus  backlog %d→%d",
		p.rate, p.sent, p.ok, p.unsent, p.p50, p.p90, p.p99, p.lateP50, p.lateP99, p.backlogMid, p.backlogEnd)
}
