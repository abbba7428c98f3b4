package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// ParseTenantSpecs decodes a declarative tenant file: a JSON array of
// TenantSpec, strictly (unknown fields are errors), every spec validated
// and names checked for duplicates. This is the format the flserver
// -tenants flag points at and reload re-reads.
func ParseTenantSpecs(data []byte) ([]TenantSpec, error) {
	var specs []TenantSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&specs); err != nil {
		return nil, fmt.Errorf("server: decode tenant specs: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("server: trailing data after tenant specs")
	}
	seen := make(map[string]bool, len(specs))
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, fmt.Errorf("server: tenant spec %d: %w", i, err)
		}
		if seen[specs[i].Name] {
			return nil, fmt.Errorf("server: duplicate tenant spec %q", specs[i].Name)
		}
		seen[specs[i].Name] = true
	}
	return specs, nil
}

// ReloadReport accounts for one configuration reload.
type ReloadReport struct {
	// Total is the number of specs in the new configuration.
	Total int `json:"total"`
	// Added tenants did not exist before; Rebuilt tenants existed with a
	// different spec and were replaced; Unchanged specs matched the
	// running tenant exactly and were left untouched (guard state,
	// counters and queue intact).
	Added     int `json:"added"`
	Rebuilt   int `json:"rebuilt"`
	Unchanged int `json:"unchanged"`
	// Dropped counts in-flight requests lost across all rebuilds. The
	// reload contract pins it to zero: requests waiting for a retired
	// tenant's turn decide on it before teardown, and later ones re-route
	// to the replacement.
	Dropped int64 `json:"dropped"`
	// AddedNames / RebuiltNames list the affected tenants in spec order.
	AddedNames   []string `json:"added_names,omitempty"`
	RebuiltNames []string `json:"rebuilt_names,omitempty"`
}

// Reload applies a new declarative tenant configuration atomically:
// every spec is validated and every new tenant fully built before any
// registry change, so a bad spec (or a failed build) rejects the whole
// reload and leaves the daemon exactly as it was. Unchanged specs keep
// their running tenant; changed ones are swapped in first and the old
// tenant retired after — its waiting requests all finish (zero dropped),
// while new arrivals already resolve to the replacement. Tenants absent
// from the new configuration are left running (reload adds and rebuilds;
// it never removes).
func (s *Server) Reload(specs []TenantSpec) (*ReloadReport, error) {
	if s.draining.Load() {
		return nil, fmt.Errorf("server: draining, not reloading")
	}
	seen := make(map[string]bool, len(specs))
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, fmt.Errorf("server: reload spec %d: %w", i, err)
		}
		if seen[specs[i].Name] {
			return nil, fmt.Errorf("server: reload: duplicate tenant %q", specs[i].Name)
		}
		seen[specs[i].Name] = true
	}

	rep := &ReloadReport{Total: len(specs)}
	// Build phase: construct every new/changed tenant before touching the
	// registry. No goroutines start here, so abandoning the batch on an
	// error leaks nothing.
	var pending []*Tenant
	for _, spec := range specs {
		if cur := s.reg.get(spec.Name); cur != nil && cur.spec == spec {
			rep.Unchanged++
			continue
		}
		t, err := buildTenant(spec, s.cfg)
		if err != nil {
			return nil, fmt.Errorf("server: reload: %w", err)
		}
		pending = append(pending, t)
	}

	// Install phase: swap each tenant in, then retire its predecessor.
	// Requests already waiting for the old tenant's turn decide on it;
	// later holders of its turn find it retired and re-resolve to the
	// replacement.
	for _, t := range pending {
		old := s.reg.replace(t)
		t.start()
		if old == nil {
			rep.Added++
			rep.AddedNames = append(rep.AddedNames, t.spec.Name)
			continue
		}
		old.retire()
		rep.Rebuilt++
		rep.RebuiltNames = append(rep.RebuiltNames, t.spec.Name)
		rep.Dropped += old.accepted.Load() - old.responded.Load()
	}
	return rep, nil
}

// ReloadFromSource re-reads the configured tenant source (the -tenants
// file) and applies it via Reload. This is the SIGHUP / POST /v1/reload
// entry point.
func (s *Server) ReloadFromSource() (*ReloadReport, error) {
	if s.cfg.TenantSource == nil {
		return nil, fmt.Errorf("server: no tenant source configured (start with -tenants)")
	}
	specs, err := s.cfg.TenantSource()
	if err != nil {
		return nil, err
	}
	return s.Reload(specs)
}

// handleReload re-reads the tenant source and applies it. 422 when no
// source is configured or the new configuration is invalid (the running
// configuration is untouched), 503 while draining.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	rep, err := s.ReloadFromSource()
	if err != nil {
		status := http.StatusUnprocessableEntity
		if s.draining.Load() {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleAudit exports one tenant's audit log as text — the summary table
// plus the canonical decision lines guard.ParseLines reads back. With
// RecordPlans (or the online loop) enabled the lines carry clock and
// served plan, so an exported audit is directly replayable into
// online continual learning.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	t := s.reg.get(r.PathValue("name"))
	if t == nil {
		writeError(w, http.StatusNotFound, "unknown tenant", 0)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if err := t.flushAudit(w); err != nil {
		// Headers are gone; the truncated body is the best we can do.
		fmt.Fprintf(w, "\naudit render error: %v\n", err)
	}
}
