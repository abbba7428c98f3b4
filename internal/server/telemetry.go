package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/report"
)

// Telemetry is the live observability flush: the same stats document
// /v1/stats serves, every tenant's audit log, and the registry snapshot —
// written atomically while the daemon keeps serving, so an operator (or a
// crash post-mortem) always has an on-disk view no older than one interval.
// Drain performs the same flush one final time; periodic flushes just make
// it continuous.

// TelemetryReport lists what one flush wrote.
type TelemetryReport struct {
	// Stats is the stats JSON path ("" when no AuditDir is configured).
	Stats string `json:"stats,omitempty"`
	// AuditFiles are the per-tenant audit logs, in tenant order.
	AuditFiles []string `json:"audit_files,omitempty"`
	// Snapshot is the registry snapshot path, when configured.
	Snapshot string `json:"snapshot,omitempty"`
}

// FlushTelemetry writes the current stats, audits and registry snapshot to
// the configured paths (AuditDir for stats.json and <tenant>.audit files,
// SnapshotPath for the registry). Every file is written via an atomic
// rename, so readers and a concurrent drain never observe a torn file. With
// neither path configured the flush is a no-op.
func (s *Server) FlushTelemetry() (*TelemetryReport, error) {
	rep := &TelemetryReport{}
	if s.cfg.AuditDir != "" {
		if err := os.MkdirAll(s.cfg.AuditDir, 0o755); err != nil {
			return rep, fmt.Errorf("server: audit dir: %w", err)
		}
		data, err := json.MarshalIndent(s.statsSnapshot(), "", "  ")
		if err != nil {
			return rep, fmt.Errorf("server: encode stats: %w", err)
		}
		path := filepath.Join(s.cfg.AuditDir, "stats.json")
		if err := report.WriteFileAtomic(path, append(data, '\n'), 0o644); err != nil {
			return rep, err
		}
		rep.Stats = path
		for _, t := range s.reg.all() {
			var buf bytes.Buffer
			if err := t.flushAudit(&buf); err != nil {
				return rep, fmt.Errorf("server: render audit %q: %w", t.spec.Name, err)
			}
			path := filepath.Join(s.cfg.AuditDir, t.spec.Name+".audit")
			if err := report.WriteFileAtomic(path, buf.Bytes(), 0o644); err != nil {
				return rep, err
			}
			rep.AuditFiles = append(rep.AuditFiles, path)
		}
	}
	if s.cfg.SnapshotPath != "" {
		if err := s.SaveSnapshot(s.cfg.SnapshotPath); err != nil {
			return rep, err
		}
		rep.Snapshot = s.cfg.SnapshotPath
	}
	return rep, nil
}

// StartTelemetry flushes telemetry every interval until the returned stop
// function is called. Flush errors are reported through logf (nil = silent)
// and do not stop the ticker. A non-positive interval disables the ticker
// entirely. Flushes pause once a drain begins — the drain owns the final,
// authoritative flush. stop is idempotent and waits for the goroutine.
func (s *Server) StartTelemetry(interval time.Duration, logf func(format string, args ...interface{})) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if s.draining.Load() {
					continue
				}
				if _, err := s.FlushTelemetry(); err != nil && logf != nil {
					logf("telemetry: %v", err)
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
