// Command flload is the load generator and chaos client for flserver: it
// registers tenants, drives decide traffic from many workers with
// client-side retry/backoff (honoring Retry-After, with jitter), and
// records exact latency quantiles plus the server's shed/degrade/timeout
// counters into a benchmark JSON.
//
// Usage:
//
//	flload [-addr http://localhost:8700] [-tenants 4] [-n 3] [-workers 32]
//	       [-duration 10s] [-deadline-ms 250] [-seed 1]
//	       [-out flload.json] [-max-p99-ms 0]
//	       [-chaos 0] [-observe-cost]
//
// With -chaos p, fraction p of requests are deliberately malformed (five
// classes: bad JSON, unknown fields, trailing garbage, non-finite values,
// wrong tenant) and the client verifies each is rejected with a 4xx —
// never a 5xx, never a hang.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flag"

	"repro/internal/report"
	"repro/internal/server"
)

// result is the benchmark JSON written to -out.
type result struct {
	Addr            string          `json:"addr"`
	Tenants         int             `json:"tenants"`
	Workers         int             `json:"workers"`
	Batch           int             `json:"batch"`
	DurationSec     float64         `json:"duration_sec"`
	Requests        int64           `json:"requests"`
	Decisions       int64           `json:"decisions"`
	DecisionsPerMin float64         `json:"decisions_per_min"`
	Shed            int64           `json:"shed"`
	Timeouts        int64           `json:"timeouts"`
	Retries         int64           `json:"retries"`
	ChaosSent       int64           `json:"chaos_sent,omitempty"`
	ChaosRejected   int64           `json:"chaos_rejected_4xx,omitempty"`
	ChaosBad        int64           `json:"chaos_unexpected,omitempty"`
	P50MS           float64         `json:"p50_ms"`
	P90MS           float64         `json:"p90_ms"`
	P99MS           float64         `json:"p99_ms"`
	Server          json.RawMessage `json:"server_stats,omitempty"`
}

type counters struct {
	requests, decisions, shed, timeouts, retries atomic.Int64
	chaosSent, chaosRejected, chaosBad           atomic.Int64
}

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8700", "flserver base URL")
		tenants  = flag.Int("tenants", 4, "tenants to register and drive")
		n        = flag.Int("n", 3, "devices per tenant")
		workers  = flag.Int("workers", 32, "concurrent client workers")
		duration = flag.Duration("duration", 10*time.Second, "load duration")
		deadline = flag.Float64("deadline-ms", 250, "per-request deadline sent to the server (0 = server default)")
		seed     = flag.Int64("seed", 1, "tenant scenario seed base")
		out      = flag.String("out", "flload.json", "benchmark JSON output path")
		maxP99   = flag.Float64("max-p99-ms", 0, "fail (exit 1) if client p99 exceeds this many ms (0 = no bound)")
		batch    = flag.Int("batch", 1, "decisions per request (amortizes the HTTP round trip; charged per decision by admission)")
		chaos    = flag.Float64("chaos", 0, "fraction of requests sent malformed (0..1)")
		obsCost  = flag.Bool("observe-cost", false, "feed a synthetic observed cost back with each request")
	)
	flag.Parse()

	client := &http.Client{
		Timeout: 5 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        *workers * 2,
			MaxIdleConnsPerHost: *workers * 2,
		},
	}

	names := make([]string, *tenants)
	for i := range names {
		names[i] = fmt.Sprintf("load-%d", i)
		spec := server.TenantSpec{Name: names[i], N: *n, Seed: *seed + int64(i), Primary: server.PrimaryFresh}
		if err := register(client, *addr, spec); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("registered %d tenants (N=%d, primary=fresh, batch=%d)\n", *tenants, *n, *batch)

	var (
		c         counters
		stop      atomic.Bool
		wg        sync.WaitGroup
		latMu     sync.Mutex
		latencies []float64 // ms, merged from workers
	)

	// Early stop on SIGINT/SIGTERM still writes the benchmark JSON.
	unhook := server.OnSignal(func(sig os.Signal) {
		fmt.Printf("\n%v: stopping load early\n", sig)
		stop.Store(true)
	})
	defer unhook()

	start := time.Now()
	deadlineT := start.Add(*duration)
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)*7919))
			local := make([]float64, 0, 1<<16)
			for time.Now().Before(deadlineT) && !stop.Load() {
				if *chaos > 0 && rng.Float64() < *chaos {
					sendChaos(client, *addr, rng, &c)
					continue
				}
				tenant := names[rng.Intn(len(names))]
				lat, ok := decideWithRetry(client, *addr, tenant, *deadline, *batch, *obsCost, rng, &c)
				if ok {
					local = append(local, lat)
				}
			}
			latMu.Lock()
			latencies = append(latencies, local...)
			latMu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Float64s(latencies)
	res := result{
		Addr:          *addr,
		Tenants:       *tenants,
		Workers:       *workers,
		Batch:         *batch,
		DurationSec:   elapsed.Seconds(),
		Requests:      c.requests.Load(),
		Decisions:     c.decisions.Load(),
		Shed:          c.shed.Load(),
		Timeouts:      c.timeouts.Load(),
		Retries:       c.retries.Load(),
		ChaosSent:     c.chaosSent.Load(),
		ChaosRejected: c.chaosRejected.Load(),
		ChaosBad:      c.chaosBad.Load(),
		P50MS:         quantile(latencies, 0.50),
		P90MS:         quantile(latencies, 0.90),
		P99MS:         quantile(latencies, 0.99),
	}
	if elapsed > 0 {
		res.DecisionsPerMin = float64(res.Decisions) / elapsed.Minutes()
	}
	if stats, err := fetchStats(client, *addr); err == nil {
		res.Server = stats
	} else {
		fmt.Fprintf(os.Stderr, "flload: stats: %v\n", err)
	}

	data, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := report.WriteFileAtomic(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}

	fmt.Printf("%d decisions in %v (%.3gM/min), p50 %.3gms p90 %.3gms p99 %.3gms\n",
		res.Decisions, elapsed.Round(time.Millisecond), res.DecisionsPerMin/1e6,
		res.P50MS, res.P90MS, res.P99MS)
	fmt.Printf("shed %d, timeouts %d, retries %d", res.Shed, res.Timeouts, res.Retries)
	if res.ChaosSent > 0 {
		fmt.Printf(", chaos %d sent / %d rejected 4xx / %d unexpected", res.ChaosSent, res.ChaosRejected, res.ChaosBad)
	}
	fmt.Printf("\nwrote %s\n", *out)

	if res.ChaosBad > 0 {
		fatal(fmt.Errorf("%d chaos requests were not rejected with a 4xx", res.ChaosBad))
	}
	if *maxP99 > 0 && res.P99MS > *maxP99 {
		fatal(fmt.Errorf("p99 %.3gms exceeds the %.3gms bound", res.P99MS, *maxP99))
	}
}

// register creates one tenant; an already-registered tenant (rerun against
// a live daemon) is not an error.
func register(client *http.Client, addr string, spec server.TenantSpec) error {
	body, err := json.Marshal(&spec)
	if err != nil {
		return err
	}
	resp, err := client.Post(addr+"/v1/tenants", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer drainClose(resp)
	if resp.StatusCode == http.StatusCreated {
		return nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	if resp.StatusCode == http.StatusUnprocessableEntity && bytes.Contains(msg, []byte("already registered")) {
		return nil
	}
	return fmt.Errorf("register %s: %s: %s", spec.Name, resp.Status, msg)
}

// decideWithRetry sends one decide request, retrying shed responses with
// jittered backoff that honors Retry-After. Returns the last attempt's
// latency in ms and whether a decision was served.
func decideWithRetry(client *http.Client, addr, tenant string, deadlineMS float64, batch int, obsCost bool, rng *rand.Rand, c *counters) (float64, bool) {
	req := server.DecideRequest{Tenant: tenant, DeadlineMS: deadlineMS}
	if batch > 1 {
		req.Count = batch
	}
	if obsCost {
		cost := 5 + rng.Float64()
		req.ObservedCost = &cost
	}
	body, _ := json.Marshal(&req)

	backoff := 2 * time.Millisecond
	for attempt := 0; attempt < 4; attempt++ {
		c.requests.Add(1)
		t0 := time.Now()
		resp, err := client.Post(addr+"/v1/decide", "application/json", bytes.NewReader(body))
		lat := float64(time.Since(t0)) / float64(time.Millisecond)
		if err != nil {
			c.timeouts.Add(1)
			return 0, false
		}
		status := resp.StatusCode
		retryHdr := resp.Header.Get("Retry-After")
		drainClose(resp)
		switch {
		case status == http.StatusOK:
			n := int64(1)
			if batch > 1 {
				n = int64(batch)
			}
			c.decisions.Add(n)
			return lat, true
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			c.shed.Add(1)
			c.retries.Add(1)
			wait := backoff
			if retryHdr != "" {
				var secs int
				if _, err := fmt.Sscanf(retryHdr, "%d", &secs); err == nil && secs > 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			if wait > 50*time.Millisecond {
				wait = 50 * time.Millisecond // cap: this is a load test, not a polite client
			}
			// Full jitter: sleep U(0, wait] to decorrelate retries.
			time.Sleep(time.Duration(rng.Float64() * float64(wait)))
			backoff *= 2
		case status == http.StatusGatewayTimeout:
			c.timeouts.Add(1)
			return 0, false
		default:
			return 0, false
		}
	}
	return 0, false
}

// sendChaos fires one malformed request and verifies the daemon rejects it
// with a 4xx (never a 5xx or a hang).
func sendChaos(client *http.Client, addr string, rng *rand.Rand, c *counters) {
	bodies := []string{
		`{"tenant": "load-0"`,                        // truncated JSON
		`{"tenant": "load-0", "bogus_field": 1}`,     // unknown field
		`{"tenant": "load-0"} trailing garbage`,      // trailing bytes
		`{"tenant": "load-0", "deadline_ms": 1e999}`, // non-finite value
		`{"tenant": "no-such-tenant-ever"}`,          // unknown tenant
		`{"tenant": "../../etc/passwd"}`,             // hostile name
	}
	body := bodies[rng.Intn(len(bodies))]
	c.chaosSent.Add(1)
	c.requests.Add(1)
	resp, err := client.Post(addr+"/v1/decide", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		c.chaosBad.Add(1)
		return
	}
	status := resp.StatusCode
	drainClose(resp)
	if status >= 400 && status < 500 {
		c.chaosRejected.Add(1)
	} else {
		c.chaosBad.Add(1)
	}
}

// fetchStats pulls the server's /v1/stats for the benchmark record.
func fetchStats(client *http.Client, addr string) (json.RawMessage, error) {
	resp, err := client.Get(addr + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: %s", resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 1<<20))
}

// drainClose fully consumes and closes a response body so the connection
// returns to the keep-alive pool.
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// quantile returns the p-quantile of sorted values (nearest-rank), or 0.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flload:", err)
	os.Exit(1)
}
