package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// Wire-format bounds. Requests beyond them are rejected before any work is
// queued, so a malformed or hostile client cannot balloon server memory.
const (
	// MaxRequestBytes bounds a request body.
	MaxRequestBytes = 1 << 20
	// MaxTenantName bounds tenant identifiers.
	MaxTenantName = 128
	// MaxTenantDevices bounds a tenant's fleet size.
	MaxTenantDevices = 4096
	// MaxClockSec bounds a tenant clock, in seconds (2^53 s). A pinned
	// clock, a tick and the clock a decide request leaves behind all stay
	// within it, so a tenant clock is always finite and a snapshot of it
	// always restores.
	MaxClockSec = 1 << 53
)

// DecideRequest asks for one frequency-plan decision.
type DecideRequest struct {
	// Tenant names the registered tenant whose plan is requested.
	Tenant string `json:"tenant"`
	// Clock optionally pins the wall-clock time t^k the plan is priced
	// at; omitted, the tenant's internal clock advances by its tick.
	Clock *float64 `json:"clock,omitempty"`
	// LastBW optionally reports the bandwidths realized since the last
	// decision (one per device, or empty for none).
	LastBW []float64 `json:"last_bw,omitempty"`
	// Down optionally marks crashed devices (one per device).
	Down []bool `json:"down,omitempty"`
	// DeadlineMS is the client's end-to-end budget in milliseconds; the
	// daemon sheds the request up front when the expected queue wait
	// already exceeds it. 0 selects the server default.
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
	// ObservedCost optionally closes the loop on the tenant's previous
	// decision: the realized iteration cost is fed to the guard's
	// cost-regression breaker before this decision is made.
	ObservedCost *float64 `json:"observed_cost,omitempty"`
	// Count asks for this many consecutive decisions in one request
	// (1..MaxBatchDecisions; 0 means 1). Batching amortizes the HTTP
	// round trip; every decision still flows through the tenant's guard
	// serially and is charged against admission individually.
	Count int `json:"count,omitempty"`

	// deadline is the instant (time.Now's clock) the server stops working
	// on the request, set by the handler from DeadlineMS and the server's
	// cap; zero for none.
	deadline time.Time
}

// expired reports whether the request's deadline has passed or its client
// has gone away (ctx).
func (r *DecideRequest) expired(ctx context.Context) bool {
	return (!r.deadline.IsZero() && !time.Now().Before(r.deadline)) || ctx.Err() != nil
}

// MaxBatchDecisions bounds Count so one request cannot monopolize a
// tenant's turn.
const MaxBatchDecisions = 1024

// Validate bounds and sanity-checks a decoded request.
func (r *DecideRequest) Validate() error {
	if err := validTenantName(r.Tenant); err != nil {
		return err
	}
	if r.Clock != nil {
		if c := *r.Clock; !(c >= 0 && c <= MaxClockSec) {
			return fmt.Errorf("server: clock %v outside [0, %v]", c, float64(MaxClockSec))
		}
	}
	if len(r.LastBW) > MaxTenantDevices {
		return fmt.Errorf("server: %d bandwidth observations exceed the %d-device bound", len(r.LastBW), MaxTenantDevices)
	}
	for i, b := range r.LastBW {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("server: non-finite bandwidth %v at device %d", b, i)
		}
	}
	if len(r.Down) > MaxTenantDevices {
		return fmt.Errorf("server: %d down flags exceed the %d-device bound", len(r.Down), MaxTenantDevices)
	}
	if d := r.DeadlineMS; math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
		return fmt.Errorf("server: deadline %vms must be finite and non-negative", d)
	}
	if r.ObservedCost != nil {
		if c := *r.ObservedCost; math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("server: non-finite observed cost %v", c)
		}
	}
	if r.Count < 0 || r.Count > MaxBatchDecisions {
		return fmt.Errorf("server: batch count %d outside [0,%d]", r.Count, MaxBatchDecisions)
	}
	return nil
}

// DecodeRegisterRequest parses a tenant-registration request with the same
// strictness as DecodeDecideRequest, through encoding/json.
func DecodeRegisterRequest(data []byte) (*TenantSpec, error) {
	var s TenantSpec
	if err := decodeStrict(data, &s); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// decodeStrict is the strict encoding/json core of the tenant-spec
// decoders: unknown fields and trailing data are errors.
func decodeStrict(data []byte, v interface{}) error {
	if len(data) > MaxRequestBytes {
		return fmt.Errorf("server: request body %d bytes exceeds the %d-byte bound", len(data), MaxRequestBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: decode request: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return fmt.Errorf("server: trailing data after request body")
	}
	return nil
}

// validTenantName bounds and restricts tenant identifiers to a filesystem-
// and log-safe alphabet (audit files are named after tenants).
func validTenantName(name string) error {
	if name == "" {
		return fmt.Errorf("server: empty tenant name")
	}
	if len(name) > MaxTenantName {
		return fmt.Errorf("server: tenant name %d bytes exceeds the %d-byte bound", len(name), MaxTenantName)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("server: tenant name %q contains %q (want [A-Za-z0-9._-])", name, c)
		}
	}
	return nil
}

// DecideResponse is a served frequency plan (or batch of plans).
type DecideResponse struct {
	// Freqs is the plan: one CPU frequency per device, in Hz. For a batch
	// it is the final plan.
	Freqs []float64 `json:"freqs"`
	// Plans holds every plan of a batched request (Count > 1), oldest
	// first; omitted for single decisions.
	Plans [][]float64 `json:"plans,omitempty"`
	// Count is how many decisions this response carries.
	Count int `json:"count"`
	// Layer names the guard level that produced the final plan: "drl",
	// "heuristic" or "maxfreq".
	Layer string `json:"layer"`
	// Mode is the tenant's serving mode after serving (see Mode): "guarded"
	// while the primary's breaker is closed, else the first fallback level
	// whose breaker is closed.
	Mode string `json:"mode"`
	// Iter is the first decision's 0-based index.
	Iter int `json:"iter"`
	// Clock is the wall-clock time the first plan was priced at.
	Clock float64 `json:"clock"`
}

// ErrorBody is the JSON shape of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
	// RetryAfterMS, when positive, tells the client when capacity is
	// expected (mirrored in the Retry-After header, whole seconds).
	RetryAfterMS float64 `json:"retry_after_ms,omitempty"`
}
