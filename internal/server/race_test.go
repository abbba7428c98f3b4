package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestGuardChainConcurrentHammer drives several tenants' guard chains from
// many goroutines at once, interleaving decide calls (some carrying
// observed-cost feedback, which reaches guard.Observe) with stats reads
// (which walk the guard audit). Run under -race this pins the central
// concurrency claim: guards are documented single-stream, and the
// tenant's turn plus tenant mutex make that safe under arbitrary handler
// concurrency.
//
// It also pins per-tenant audit determinism in the ordering sense: however
// the goroutines interleave, each tenant's audit is one gap-free serial
// decision stream (total == served decisions, k strictly sequential).
func TestGuardChainConcurrentHammer(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.QueueCap = 4096
	cfg.RequestTimeout = 30 * time.Second
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tenants := []string{"race-a", "race-b", "race-c"}
	for i, name := range tenants {
		registerTenant(t, ts, TenantSpec{Name: name, N: 3, Seed: int64(i + 1), Primary: PrimaryFresh})
	}

	const (
		goroutines = 12
		perG       = 40
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for k := 0; k < perG; k++ {
				tenant := tenants[(g+k)%len(tenants)]
				req := DecideRequest{Tenant: tenant}
				if k%4 == 1 {
					cost := 5.0 + float64(k%7)
					req.ObservedCost = &cost
				}
				body, _ := json.Marshal(&req)
				resp, err := client.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d call %d: status %d", g, k, resp.StatusCode)
				}
				resp.Body.Close()
				if k%8 == 3 {
					// Interleave audit walks with decisions.
					r2, err := client.Get(ts.URL + "/v1/tenants/" + tenant)
					if err != nil {
						t.Error(err)
						return
					}
					r2.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()

	// Every request was served: goroutines × calls, split across tenants.
	if got, want := s.Counters().Decisions.Load(), int64(goroutines*perG); got != want {
		t.Fatalf("decisions %d, want %d", got, want)
	}

	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := s.FinishDrain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 0 {
		t.Fatalf("dropped %d requests", rep.Dropped)
	}

	// Per-tenant serial audit: decisions indexed 0..n-1 with no gaps,
	// regardless of client interleaving.
	var total int
	for _, name := range tenants {
		tn := s.Tenant(name)
		recs := tn.guard.Audit().Records()
		if tn.guard.Audit().Dropped() > 0 {
			// The in-memory window wrapped; ordering is still checkable.
			t.Logf("tenant %s audit window dropped %d records", name, tn.guard.Audit().Dropped())
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Iter != recs[i-1].Iter+1 {
				t.Fatalf("tenant %s: audit k jumps %d -> %d (not a serial stream)",
					name, recs[i-1].Iter, recs[i].Iter)
			}
		}
		total += tn.guard.Audit().Total()
	}
	if total != goroutines*perG {
		t.Fatalf("audit total %d, want %d", total, goroutines*perG)
	}
}
