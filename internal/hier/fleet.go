// Package hier is the hierarchical federation engine: edge→cloud two-tier
// FedAvg (devices → regional aggregators → global server) with per-round
// cohort subsampling and a buffered semi-synchronous protocol — the global
// step commits after the first M regional arrivals, and late arrivals are
// staleness-weighted into the next step. It exists to break the paper's
// synchronous barrier T^k = max_i T_i^k, which makes every round as slow as
// the slowest of N devices and caps the flat engine at toy fleet sizes.
//
// Performance is the point: device state is struct-of-arrays (no per-device
// heap objects at N=1M), traces are a shared pool replayed at per-device
// phase offsets, per-region event loops run on a bounded worker pool with a
// deterministic region-order merge (bit-identical at any worker count, the
// PR 1 invariant), and the steady-state round path performs zero heap
// allocations (the DESIGN.md §10 contract). With one region, full cohorts
// and M = all regions the engine is bit-identical to the flat
// fl.RunIteration, pinned by differential tests.
package hier

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bandwidth"
	"repro/internal/device"
	"repro/internal/fl"
	"repro/internal/trace"
)

// Fleet is the struct-of-arrays form of a device population. Where the flat
// engine holds one *device.Device and one *trace.Trace per device, a Fleet
// stores each parameter as a flat column and shares a small pool of traces
// across the population (device i replays Pool[TraceIdx[i]] shifted by
// Phase[i] seconds), so a million-device fleet is a handful of contiguous
// arrays instead of a million heap objects.
type Fleet struct {
	// DataBits, CyclesPerBit, MaxFreqHz, Alpha and TxPerSec are the §V-A
	// device parameters (D_i, c_i, δ_i^max, α_i, e_i), one entry per device.
	DataBits     []float64
	CyclesPerBit []float64
	MaxFreqHz    []float64
	Alpha        []float64
	TxPerSec     []float64

	// Pool holds the distinct bandwidth traces shared by the fleet.
	Pool []*trace.Trace
	// TraceIdx maps each device to its pool trace.
	TraceIdx []int32
	// Phase is each device's replay offset in seconds: device i's bandwidth
	// at wall-clock t is Pool[TraceIdx[i]] evaluated at t + Phase[i], so
	// devices sharing a trace still see decorrelated link conditions.
	Phase []float64
}

// FleetOptions configures random fleet generation. The zero value takes the
// paper's §V-A parameter distributions, a 64-trace walking-profile pool of
// 4000-second traces, and random replay phases.
type FleetOptions struct {
	// Params are the device parameter distributions (§V-A when zero).
	Params device.FleetParams
	// PoolSize is the number of distinct traces to generate (default 64).
	PoolSize int
	// TraceSec is the generated trace length in seconds (default 4000).
	TraceSec float64
	// AlignPhases forces every Phase to zero. Required when the fleet will
	// be materialized into a flat fl.System for differential comparison —
	// the flat engine has no notion of replay phase.
	AlignPhases bool
}

// NewFleet draws an n-device fleet with parameters distributed per §V-A,
// traces cycling through the walking profiles, seeded deterministically.
func NewFleet(n int, opts FleetOptions, seed int64) (*Fleet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("hier: fleet size %d must be positive", n)
	}
	poolSize := opts.PoolSize
	if poolSize <= 0 {
		poolSize = 64
	}
	if poolSize > n {
		poolSize = n
	}
	traceSec := opts.TraceSec
	if traceSec <= 0 {
		traceSec = 4000
	}
	p := opts.Params.WithDefaults()
	if p.DataMBMax < p.DataMBMin || p.CyclesMax < p.CyclesMin || p.FreqGHzMax < p.FreqGHzMin {
		return nil, fmt.Errorf("hier: inverted parameter range in %+v", p)
	}

	pool, err := bandwidth.WalkingSet(poolSize, "%s-pool%03d", traceSec, seed)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	uniform := func(lo, hi float64) float64 {
		if hi == lo {
			return lo
		}
		return lo + rng.Float64()*(hi-lo)
	}
	f := &Fleet{
		DataBits:     make([]float64, n),
		CyclesPerBit: make([]float64, n),
		MaxFreqHz:    make([]float64, n),
		Alpha:        make([]float64, n),
		TxPerSec:     make([]float64, n),
		Pool:         pool,
		TraceIdx:     make([]int32, n),
		Phase:        make([]float64, n),
	}
	for i := 0; i < n; i++ {
		f.DataBits[i] = uniform(p.DataMBMin, p.DataMBMax) * device.BitsPerMB
		f.CyclesPerBit[i] = uniform(p.CyclesMin, p.CyclesMax)
		f.MaxFreqHz[i] = uniform(p.FreqGHzMin, p.FreqGHzMax) * device.GHz
		f.Alpha[i] = p.Alpha
		f.TxPerSec[i] = p.TxEnergyPerSec
		f.TraceIdx[i] = int32(i % poolSize)
		if !opts.AlignPhases {
			f.Phase[i] = rng.Float64() * pool[f.TraceIdx[i]].Duration()
		}
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// FromSystem builds the SoA view of a flat fl.System: one pool entry per
// device trace, identity trace mapping, zero phases. The fleet aliases the
// system's traces (they are read-only once in use), so the two engines
// observe bit-identical bandwidth — the substrate of the differential tests.
func FromSystem(sys *fl.System) (*Fleet, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	n := sys.N()
	f := &Fleet{
		DataBits:     make([]float64, n),
		CyclesPerBit: make([]float64, n),
		MaxFreqHz:    make([]float64, n),
		Alpha:        make([]float64, n),
		TxPerSec:     make([]float64, n),
		Pool:         append([]*trace.Trace(nil), sys.Traces...),
		TraceIdx:     make([]int32, n),
		Phase:        make([]float64, n),
	}
	for i, d := range sys.Devices {
		f.DataBits[i] = d.DataBits
		f.CyclesPerBit[i] = d.CyclesPerBit
		f.MaxFreqHz[i] = d.MaxFreqHz
		f.Alpha[i] = d.Alpha
		f.TxPerSec[i] = d.TxEnergyPerSec
		f.TraceIdx[i] = int32(i)
	}
	return f, nil
}

// System materializes the fleet into a flat fl.System (device structs plus
// shared trace pointers) so the same population can run under the flat
// barrier engine for comparison. It refuses fleets with nonzero phases: the
// flat engine cannot express a replay offset, and silently dropping it
// would make the comparison dishonest.
func (f *Fleet) System(tau int, modelBytes, lambda float64) (*fl.System, error) {
	n := f.N()
	devs := make([]*device.Device, n)
	traces := make([]*trace.Trace, n)
	for i := 0; i < n; i++ {
		if f.Phase[i] != 0 {
			return nil, fmt.Errorf("hier: device %d has replay phase %v; flat systems need AlignPhases fleets", i, f.Phase[i])
		}
		devs[i] = &device.Device{
			ID:             i,
			DataBits:       f.DataBits[i],
			CyclesPerBit:   f.CyclesPerBit[i],
			MaxFreqHz:      f.MaxFreqHz[i],
			Alpha:          f.Alpha[i],
			TxEnergyPerSec: f.TxPerSec[i],
		}
		traces[i] = f.Pool[f.TraceIdx[i]]
	}
	sys := &fl.System{Devices: devs, Traces: traces, Tau: tau, ModelBytes: modelBytes, Lambda: lambda}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return sys, nil
}

// N returns the number of devices.
func (f *Fleet) N() int { return len(f.MaxFreqHz) }

// Validate checks the fleet's columns for consistency.
func (f *Fleet) Validate() error {
	n := f.N()
	if n == 0 {
		return fmt.Errorf("hier: empty fleet")
	}
	for _, col := range [][]float64{f.DataBits, f.CyclesPerBit, f.Alpha, f.TxPerSec, f.Phase} {
		if len(col) != n {
			return fmt.Errorf("hier: column length %d, want %d", len(col), n)
		}
	}
	if len(f.TraceIdx) != n {
		return fmt.Errorf("hier: trace index length %d, want %d", len(f.TraceIdx), n)
	}
	if len(f.Pool) == 0 {
		return fmt.Errorf("hier: empty trace pool")
	}
	for i, tr := range f.Pool {
		if tr == nil {
			return fmt.Errorf("hier: pool trace %d is nil", i)
		}
		if tr.Integrate(0, tr.Duration()) <= 0 {
			return fmt.Errorf("hier: pool trace %d (%s) moves no bytes per cycle; uploads would never finish", i, tr.Name)
		}
	}
	for i := 0; i < n; i++ {
		switch {
		case f.DataBits[i] <= 0:
			return fmt.Errorf("hier: device %d non-positive dataset size %v", i, f.DataBits[i])
		case f.CyclesPerBit[i] <= 0:
			return fmt.Errorf("hier: device %d non-positive cycles/bit %v", i, f.CyclesPerBit[i])
		case f.MaxFreqHz[i] <= 0:
			return fmt.Errorf("hier: device %d non-positive max frequency %v", i, f.MaxFreqHz[i])
		case f.Alpha[i] <= 0:
			return fmt.Errorf("hier: device %d non-positive capacitance %v", i, f.Alpha[i])
		case f.TxPerSec[i] < 0:
			return fmt.Errorf("hier: device %d negative tx energy %v", i, f.TxPerSec[i])
		case int(f.TraceIdx[i]) >= len(f.Pool) || f.TraceIdx[i] < 0:
			return fmt.Errorf("hier: device %d trace index %d outside pool of %d", i, f.TraceIdx[i], len(f.Pool))
		case f.Phase[i] < 0 || math.IsNaN(f.Phase[i]) || math.IsInf(f.Phase[i], 0):
			return fmt.Errorf("hier: device %d invalid phase %v", i, f.Phase[i])
		}
	}
	return nil
}
