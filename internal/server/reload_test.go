package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/online"
)

// specSource builds a TenantSource over a swappable in-memory spec list —
// the test stand-in for the -tenants file.
type specSource struct {
	mu    sync.Mutex
	specs []TenantSpec
}

func (s *specSource) set(specs []TenantSpec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.specs = append([]TenantSpec(nil), specs...)
}

func (s *specSource) read() ([]TenantSpec, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]TenantSpec(nil), s.specs...), nil
}

func TestParseTenantSpecs(t *testing.T) {
	specs, err := ParseTenantSpecs([]byte(`[{"name":"a","n":2},{"name":"b","n":3,"primary":"fresh"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "a" || specs[1].N != 3 {
		t.Fatalf("unexpected specs: %+v", specs)
	}
	for _, bad := range []string{
		`[{"name":"a","n":2},{"name":"a","n":2}]`, // duplicate name
		`[{"name":"a","n":0}]`,                    // invalid fleet size
		`[{"name":"a","n":2,"bogus":1}]`,          // unknown field
		`[{"name":"a","n":2}] trailing`,           // trailing data
	} {
		if _, err := ParseTenantSpecs([]byte(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestReloadAddRebuildUnchanged: reload classifies specs correctly and a
// rebuilt tenant restarts from a fresh guard while an unchanged one keeps
// its state.
func TestReloadAddRebuildUnchanged(t *testing.T) {
	src := &specSource{}
	cfg := DefaultServerConfig()
	cfg.TenantSource = src.read
	s, ts := newTestServer(t, cfg)

	src.set([]TenantSpec{
		{Name: "keep", N: 2, Seed: 1, Primary: PrimaryFresh},
		{Name: "change", N: 2, Seed: 1, Primary: PrimaryFresh},
	})
	rep, err := s.ReloadFromSource()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Added != 2 || rep.Rebuilt != 0 || rep.Unchanged != 0 {
		t.Fatalf("boot reload: %+v", rep)
	}

	// Advance both tenants so the rebuilt one's reset is observable.
	for k := 0; k < 3; k++ {
		for _, name := range []string{"keep", "change"} {
			if _, status := decide(t, ts, DecideRequest{Tenant: name}); status != http.StatusOK {
				t.Fatalf("decide %s: status %d", name, status)
			}
		}
	}

	src.set([]TenantSpec{
		{Name: "keep", N: 2, Seed: 1, Primary: PrimaryFresh},
		{Name: "change", N: 2, Seed: 2, Primary: PrimaryFresh}, // new seed → rebuild
		{Name: "fresh", N: 2, Seed: 3, Primary: PrimaryFresh},
	})
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr ReloadReport
	decodeBody(t, resp, &rr)
	if rr.Added != 1 || rr.Rebuilt != 1 || rr.Unchanged != 1 || rr.Dropped != 0 {
		t.Fatalf("reload report: %+v", rr)
	}
	if got := s.Tenant("keep").Stats().Decisions; got != 3 {
		t.Fatalf("unchanged tenant lost state: %d decisions, want 3", got)
	}
	if got := s.Tenant("change").Stats().Decisions; got != 0 {
		t.Fatalf("rebuilt tenant kept state: %d decisions, want 0", got)
	}
	if _, status := decide(t, ts, DecideRequest{Tenant: "fresh"}); status != http.StatusOK {
		t.Fatalf("added tenant not serving: status %d", status)
	}
}

// TestReloadAtomicOnBadSpec: one invalid spec rejects the whole reload and
// the running configuration is untouched.
func TestReloadAtomicOnBadSpec(t *testing.T) {
	src := &specSource{}
	cfg := DefaultServerConfig()
	cfg.TenantSource = src.read
	s, ts := newTestServer(t, cfg)

	src.set([]TenantSpec{{Name: "a", N: 2, Seed: 1, Primary: PrimaryFresh}})
	if _, err := s.ReloadFromSource(); err != nil {
		t.Fatal(err)
	}
	before := s.reg.get("a")

	src.set([]TenantSpec{
		{Name: "a", N: 2, Seed: 9, Primary: PrimaryFresh}, // would rebuild
		{Name: "b", N: 0}, // invalid
	})
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad reload status %d, want 422", resp.StatusCode)
	}
	if s.reg.get("a") != before {
		t.Fatal("failed reload replaced a tenant")
	}
}

// TestReloadZeroDroppedUnderLoad: hammer decide while the tenant is
// rebuilt repeatedly; every accepted request gets an answer (2xx or an
// honest shed), never a dropped connection or a send-on-closed panic.
func TestReloadZeroDroppedUnderLoad(t *testing.T) {
	src := &specSource{}
	cfg := DefaultServerConfig()
	cfg.TenantSource = src.read
	s, ts := newTestServer(t, cfg)

	src.set([]TenantSpec{{Name: "hot", N: 2, Seed: 1, Primary: PrimaryFresh}})
	if _, err := s.ReloadFromSource(); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var served, shed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				_, status := decide(t, ts, DecideRequest{Tenant: "hot"})
				switch status {
				case http.StatusOK:
					served.Add(1)
				case http.StatusServiceUnavailable, http.StatusGatewayTimeout, http.StatusTooManyRequests:
					shed.Add(1)
				default:
					t.Errorf("unexpected decide status %d", status)
					return
				}
			}
		}()
	}

	var totalDropped int64
	for i := 0; i < 10; i++ {
		seed := int64(i%2 + 1) // flip-flop the spec so every reload rebuilds
		src.set([]TenantSpec{{Name: "hot", N: 2, Seed: seed + 1, Primary: PrimaryFresh}})
		rep, err := s.ReloadFromSource()
		if err != nil {
			t.Fatal(err)
		}
		totalDropped += rep.Dropped
	}
	stop.Store(true)
	wg.Wait()

	if totalDropped != 0 {
		t.Fatalf("reloads dropped %d in-flight requests", totalDropped)
	}
	if served.Load() == 0 {
		t.Fatal("no requests served during the reload storm")
	}
}

// TestReloadRetiresBehindWaiters: requests waiting for a tenant's turn
// when a reload replaces it each either decide on the old tenant or, if
// the reload's retire got the turn first, are sent to re-resolve the name;
// the reload counts none of them dropped, and a request that gets the
// retired tenant's turn later is sent on without being counted there.
func TestReloadRetiresBehindWaiters(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.SlowActor = 20 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.BeginDrainForTest(t)
	if _, err := s.Reload([]TenantSpec{{Name: "hot", N: 2, Seed: 1, Primary: PrimaryFresh}}); err != nil {
		t.Fatal(err)
	}
	old := s.Tenant("hot")

	const n = 3
	var served, rerouted atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, retired := old.serve(context.Background(), s, &DecideRequest{Tenant: "hot"})
			switch {
			case retired:
				rerouted.Add(1)
			case res.status == http.StatusOK:
				served.Add(1)
			default:
				t.Errorf("waiting request: status %d (%s)", res.status, res.errMsg)
			}
		}()
	}
	// One request decides for 20ms while the others wait for the turn.
	for old.accepted.Load() == 0 || old.QueueLen() < n-1 {
		time.Sleep(time.Millisecond)
	}
	rep, err := s.Reload([]TenantSpec{{Name: "hot", N: 2, Seed: 2, Primary: PrimaryFresh}})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rebuilt != 1 || rep.Dropped != 0 {
		t.Fatalf("reload report %+v, want one rebuild and none dropped", rep)
	}
	st := old.Stats()
	if served.Load()+rerouted.Load() != n || int64(st.Decisions) != served.Load() ||
		st.Accepted != served.Load() || st.Responded != served.Load() {
		t.Fatalf("%d served and %d rerouted of %d; old tenant: %d decisions, accepted %d, responded %d",
			served.Load(), rerouted.Load(), n, st.Decisions, st.Accepted, st.Responded)
	}
	if res, retired := old.serve(context.Background(), s, &DecideRequest{Tenant: "hot"}); !retired {
		t.Fatalf("the retired tenant's turn answered a request: status %d", res.status)
	}
	if got := old.accepted.Load(); got != served.Load() {
		t.Fatalf("the retired tenant counted a rerouted request: accepted %d, served %d", got, served.Load())
	}
}

// TestAuditExportReplayable: the audit endpoint exports canonical lines
// that guard.ParseLines reads back; with RecordPlans they carry plans.
func TestAuditExportReplayable(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.RecordPlans = true
	_, ts := newTestServer(t, cfg)
	registerTenant(t, ts, TenantSpec{Name: "aud", N: 2, Seed: 1, Primary: PrimaryFresh})
	for k := 0; k < 6; k++ {
		if _, status := decide(t, ts, DecideRequest{Tenant: "aud"}); status != http.StatusOK {
			t.Fatalf("decide: status %d", status)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/tenants/aud/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("audit export status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	recs := guard.ParseLines(buf.String())
	if len(recs) != 6 {
		t.Fatalf("parsed %d decisions from export, want 6:\n%s", len(recs), buf.String())
	}
	withPlans := 0
	for _, d := range recs {
		if len(d.Plan) == 2 {
			withPlans++
		}
	}
	if withPlans == 0 {
		t.Fatalf("no exported decision carries a plan:\n%s", buf.String())
	}

	if resp, err := http.Get(ts.URL + "/v1/tenants/nope/audit"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown tenant audit status %d, want 404", resp.StatusCode)
		}
	}
}

// TestOnlineLoopWiredIntoTenant: with Online configured, a DRL-primary
// tenant streams decisions into its loop (buffer fills) while serving
// normally, and a heuristic tenant carries no loop.
func TestOnlineLoopWiredIntoTenant(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.Online = &online.Config{
		BufferCap:  64,
		MinSamples: 32,
		Workers:    1,
	}
	s, ts := newTestServer(t, cfg)
	registerTenant(t, ts, TenantSpec{Name: "drl", N: 2, Seed: 1, Primary: PrimaryFresh})
	registerTenant(t, ts, TenantSpec{Name: "heur", N: 2, Seed: 1, Primary: PrimaryHeuristic})

	if s.Tenant("heur").loop != nil {
		t.Fatal("heuristic tenant got an online loop")
	}
	dt := s.Tenant("drl")
	if dt.loop == nil {
		t.Fatal("drl tenant has no online loop")
	}

	for k := 0; k < 8; k++ {
		if _, status := decide(t, ts, DecideRequest{Tenant: "drl"}); status != http.StatusOK {
			t.Fatalf("decide: status %d", status)
		}
	}

	// Drain so the online goroutine has consumed everything it will get.
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := s.FinishDrain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 0 {
		t.Fatalf("drain dropped %d", rep.Dropped)
	}
	replayed, skipped, _, _ := dt.loop.Stats()
	if replayed+skipped == 0 {
		t.Fatal("online loop saw no decisions")
	}
	if replayed == 0 {
		t.Fatalf("no decision was replayable (skipped %d) — RecordPlans not implied by Online?", skipped)
	}
}

// TestSwapActorHotSwap: promoting a cloned policy through swapActor keeps
// the tenant serving and swaps the DRL's weights in place.
func TestSwapActorHotSwap(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.Online = &online.Config{BufferCap: 64, MinSamples: 32, Workers: 1}
	s, ts := newTestServer(t, cfg)
	registerTenant(t, ts, TenantSpec{Name: "swap", N: 2, Seed: 1, Primary: PrimaryFresh})
	tn := s.Tenant("swap")

	if _, status := decide(t, ts, DecideRequest{Tenant: "swap"}); status != http.StatusOK {
		t.Fatalf("pre-swap decide status %d", status)
	}
	oldPolicy := tn.drl.Policy
	cand := tn.loop.Agent()
	if err := tn.swapActor(cand); err != nil {
		t.Fatal(err)
	}
	if tn.drl.Policy == oldPolicy {
		t.Fatal("swapActor did not replace the serving policy")
	}
	if _, status := decide(t, ts, DecideRequest{Tenant: "swap"}); status != http.StatusOK {
		t.Fatalf("post-swap decide status %d", status)
	}
}

// decodeBody decodes a JSON response body and closes it.
func decodeBody(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	io.Copy(&buf, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, strings.TrimSpace(buf.String()))
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		t.Fatal(err)
	}
}
