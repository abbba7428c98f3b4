package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestFlushTelemetry checks one live flush: stats JSON, per-tenant audit
// and registry snapshot all land on disk while the server keeps serving.
func TestFlushTelemetry(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultServerConfig()
	cfg.AuditDir = filepath.Join(dir, "audits")
	cfg.SnapshotPath = filepath.Join(dir, "reg.snap.json")
	s, ts := newTestServer(t, cfg)
	registerTenant(t, ts, TenantSpec{Name: "alpha", N: 3, Seed: 1, Primary: PrimaryFresh})
	for k := 0; k < 4; k++ {
		if _, status := decide(t, ts, DecideRequest{Tenant: "alpha"}); status != 200 {
			t.Fatalf("decide %d: status %d", k, status)
		}
	}

	rep, err := s.FlushTelemetry()
	if err != nil {
		t.Fatalf("FlushTelemetry: %v", err)
	}
	data, err := os.ReadFile(rep.Stats)
	if err != nil {
		t.Fatalf("stats file: %v", err)
	}
	var body statsBody
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if len(body.Tenants) != 1 || body.Tenants[0].Name != "alpha" {
		t.Fatalf("stats tenants: %+v", body.Tenants)
	}
	if body.Counters["decisions"] != 4 {
		t.Fatalf("stats decisions = %d, want 4", body.Counters["decisions"])
	}
	if len(rep.AuditFiles) != 1 {
		t.Fatalf("audit files: %v", rep.AuditFiles)
	}
	if _, err := os.Stat(rep.AuditFiles[0]); err != nil {
		t.Fatalf("audit file: %v", err)
	}
	var snap Snapshot
	sd, err := os.ReadFile(rep.Snapshot)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := json.Unmarshal(sd, &snap); err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	if len(snap.Tenants) != 1 || snap.Tenants[0].Iter != 4 {
		t.Fatalf("snapshot tenants: %+v", snap.Tenants)
	}
	// The live flush must not have disturbed serving.
	if _, status := decide(t, ts, DecideRequest{Tenant: "alpha"}); status != 200 {
		t.Fatalf("decide after flush: status %d", status)
	}
}

// TestFlushTelemetryNoop checks the unconfigured server flushes nothing.
func TestFlushTelemetryNoop(t *testing.T) {
	s, _ := newTestServer(t, DefaultServerConfig())
	rep, err := s.FlushTelemetry()
	if err != nil {
		t.Fatalf("FlushTelemetry: %v", err)
	}
	if rep.Stats != "" || len(rep.AuditFiles) != 0 || rep.Snapshot != "" {
		t.Fatalf("no-op flush wrote %+v", rep)
	}
}

// TestStartTelemetry checks the ticker flushes periodically and that stop
// is idempotent and halts further flushes.
func TestStartTelemetry(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultServerConfig()
	cfg.AuditDir = dir
	s, ts := newTestServer(t, cfg)
	registerTenant(t, ts, TenantSpec{Name: "tick", N: 3, Seed: 1, Primary: PrimaryFresh})

	stop := s.StartTelemetry(5*time.Millisecond, t.Logf)
	statsPath := filepath.Join(dir, "stats.json")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(statsPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("telemetry ticker never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent

	os.Remove(statsPath)
	time.Sleep(25 * time.Millisecond)
	if _, err := os.Stat(statsPath); !os.IsNotExist(err) {
		t.Fatal("flush happened after stop")
	}

	// A disabled ticker returns a callable no-op stop.
	s.StartTelemetry(0, nil)()
}
