package server

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/report"
)

// snapshotVersion guards the snapshot wire format.
const snapshotVersion = 1

// Snapshot is the registry's crash-safe persistent form: enough to rebuild
// every tenant (specs are deterministic builders) plus the progress markers
// a restarted daemon resumes from. Guard in-memory audit windows are
// flushed separately as text on drain; they are evidence, not state.
type Snapshot struct {
	Version int           `json:"version"`
	Tenants []TenantState `json:"tenants"`
}

// TenantState is one tenant's persisted row.
type TenantState struct {
	Spec TenantSpec `json:"spec"`
	// Iter is the tenant's next decision index.
	Iter int `json:"iter"`
	// Clock is the tenant's internal wall clock, seconds.
	Clock float64 `json:"clock"`
}

// snapshot captures every registered tenant in name order.
func (s *Server) snapshot() *Snapshot {
	snap := &Snapshot{Version: snapshotVersion}
	for _, t := range s.reg.all() {
		t.mu.Lock()
		snap.Tenants = append(snap.Tenants, TenantState{
			Spec:  t.spec,
			Iter:  t.iter,
			Clock: t.clock,
		})
		t.mu.Unlock()
	}
	return snap
}

// SaveSnapshot persists the registry atomically (temp file + rename): a
// kill -9 during the write leaves the previous snapshot intact.
func (s *Server) SaveSnapshot(path string) error {
	data, err := json.MarshalIndent(s.snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("server: encode snapshot: %w", err)
	}
	return report.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// RestoreSnapshot re-registers every tenant from a snapshot file. A missing
// file is a clean cold start, not an error. Tenants that fail to rebuild
// (e.g. the daemon restarted without the agent a drl tenant requires) are
// reported but do not block the rest.
func (s *Server) RestoreSnapshot(path string) (restored int, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("server: read snapshot: %w", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return 0, fmt.Errorf("server: decode snapshot %s: %w", path, err)
	}
	if snap.Version != snapshotVersion {
		return 0, fmt.Errorf("server: snapshot %s version %d, want %d", path, snap.Version, snapshotVersion)
	}
	var firstErr error
	for _, ts := range snap.Tenants {
		t, err := s.Register(ts.Spec)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		t.mu.Lock()
		t.iter = ts.Iter
		t.clock = ts.Clock
		t.mu.Unlock()
		restored++
	}
	return restored, firstErr
}
