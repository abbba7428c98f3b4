package server

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/report"
)

// snapshotVersion guards the snapshot wire format.
const snapshotVersion = 1

// maxSnapshotIter bounds a restored decision index. 2^53 decisions is
// centuries of serving at a million a second, so no real run reaches it;
// below it the index stays exact for clients that read JSON numbers as
// float64, and far from int64 overflow on the next decision.
const maxSnapshotIter int64 = 1 << 53

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
// file is a clean cold start, not an error. A row whose progress markers
// the decide path could not have produced (a clock outside [0,
// MaxClockSec], an iter outside [0, 2^53]) rejects the whole file before
// any tenant is registered. Tenants that fail to rebuild (e.g. the daemon
// restarted without the agent a drl tenant requires) are reported but do
// not block the rest.
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
	for _, ts := range snap.Tenants {
		if c := ts.Clock; !(c >= 0 && c <= MaxClockSec) {
			return 0, fmt.Errorf("server: snapshot %s: tenant %q: clock %v outside [0, %v]", path, ts.Spec.Name, c, float64(MaxClockSec))
		}
		if ts.Iter < 0 || int64(ts.Iter) > maxSnapshotIter {
			return 0, fmt.Errorf("server: snapshot %s: tenant %q: iter %d outside [0, %d]", path, ts.Spec.Name, ts.Iter, maxSnapshotIter)
		}
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
