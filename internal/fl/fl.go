// Package fl implements the paper's federated-learning timing model: the
// continuous-time, synchronous iteration engine of §III. Given per-device
// CPU frequencies chosen at the start of iteration k, it computes each
// device's computation time (eq. 1), finds the upload completion instant by
// integrating the device's bandwidth trace (eqs. 2–3), takes the barrier
// maximum (eq. 5), accounts energy (eq. 6) and the system cost that the
// DRL agent's reward (eq. 13) negates, and advances the wall clock (eq. 11).
package fl

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/trace"
)

// System is one federated-learning deployment: a fleet of devices with
// their uplink traces and the task constants. A System holds a cache and
// must not be copied after first use; build a new one instead.
type System struct {
	// Devices in the group (N ≥ 1).
	Devices []*device.Device
	// Traces[i] is device i's uplink bandwidth over wall-clock time.
	Traces []*trace.Trace
	// Tau is τ, the number of local training passes per iteration.
	Tau int
	// ModelBytes is ξ, the size of the uploaded model parameters in bytes.
	ModelBytes float64
	// Lambda is λ, the energy weight in the system cost (eq. 9).
	Lambda float64

	// slots caches the slot-major table of Traces (SlotTable).
	slots trace.SlotCache
}

// SlotTable returns the slot-major table of the system's slot averages at
// width h, built on first use and rebuilt after any Traces[i] is replaced
// or h changes, or nil when the traces have no common slot period
// (trace.SlotCache).
func (s *System) SlotTable(h float64) *trace.SlotTable {
	return s.slots.Table(s.Traces, h)
}

// Validate checks that the system is consistent.
func (s *System) Validate() error {
	if len(s.Devices) == 0 {
		return fmt.Errorf("fl: no devices")
	}
	if len(s.Traces) != len(s.Devices) {
		return fmt.Errorf("fl: %d traces for %d devices", len(s.Traces), len(s.Devices))
	}
	for i, d := range s.Devices {
		if d == nil {
			return fmt.Errorf("fl: device %d is nil", i)
		}
		if err := d.Validate(); err != nil {
			return fmt.Errorf("fl: %w", err)
		}
		if s.Traces[i] == nil {
			return fmt.Errorf("fl: trace %d is nil", i)
		}
	}
	if s.Tau <= 0 {
		return fmt.Errorf("fl: τ = %d must be positive", s.Tau)
	}
	if s.ModelBytes <= 0 {
		return fmt.Errorf("fl: model size %v must be positive", s.ModelBytes)
	}
	if s.Lambda < 0 {
		return fmt.Errorf("fl: λ = %v must be non-negative", s.Lambda)
	}
	return nil
}

// N returns the number of devices.
func (s *System) N() int { return len(s.Devices) }

// DeviceIterStats records one device's outcome within one iteration.
type DeviceIterStats struct {
	// FreqHz is the applied CPU frequency δ_i^k.
	FreqHz float64
	// ComputeTime is t_cmp (eq. 1).
	ComputeTime float64
	// ComTime is t_com (eq. 2), derived from the trace integral (eq. 3).
	ComTime float64
	// TotalTime is T_i^k = t_cmp + t_com (eq. 4).
	TotalTime float64
	// IdleTime is T^k − T_i^k, the slack the paper's mechanism converts
	// into energy savings.
	IdleTime float64
	// AvgBandwidth is B_i^k, the realized mean upload speed (bytes/s).
	AvgBandwidth float64
	// ComputeEnergy is the α·τ·c·D·δ² term of eq. 6.
	ComputeEnergy float64
	// TxEnergy is the e_i·t_com term of eq. 6.
	TxEnergy float64
	// Down marks a device that was crashed for this whole iteration
	// (fault injection); all other fields are zero.
	Down bool
	// Dropped marks a device that missed the barrier deadline and was
	// excluded from the round's aggregation (partial-aggregation mode).
	Dropped bool
	// Retries is the number of blacked-out upload attempts that preceded
	// the successful one (each cost a backoff wait).
	Retries int
}

// IterationStats records one whole iteration.
type IterationStats struct {
	// Index is k (0-based).
	Index int
	// StartTime is t^k on the global wall clock.
	StartTime float64
	// Duration is T^k = max_i T_i^k (eq. 5).
	Duration float64
	// Devices holds per-device breakdowns.
	Devices []DeviceIterStats
	// ComputeEnergy is Σ_i of the computational term.
	ComputeEnergy float64
	// TxEnergy is Σ_i of the communication term.
	TxEnergy float64
	// Cost is T^k + λ·Σ_i E_i^k (the negative of reward, eq. 13).
	Cost float64
	// Survivors is the number of devices whose update made this round's
	// aggregation (N minus Down minus Dropped; N when fault-free).
	Survivors int
	// Dropped counts devices that missed the barrier deadline.
	Dropped int
	// Down counts devices that were crashed for the whole iteration.
	Down int
}

// TotalEnergy returns Σ_i E_i^k with both terms of eq. (6).
func (it *IterationStats) TotalEnergy() float64 {
	return it.ComputeEnergy + it.TxEnergy
}

// RunIteration simulates iteration k starting at startTime with the given
// per-device frequencies (Hz) in the paper's fault-free engine: it is
// RunIterationOptsInto (faults.go) with the zero IterOptions and a fresh
// stats buffer.
func (s *System) RunIteration(k int, startTime float64, freqs []float64) (IterationStats, error) {
	return s.RunIterationOptsInto(k, startTime, freqs, IterOptions{}, nil)
}

// Session drives a System across iterations, advancing the wall clock per
// eq. (11): t^{k+1} = t^k + T^k.
type Session struct {
	Sys *System
	// Clock is the current wall-clock time t^k (seconds).
	Clock float64
	// History holds the stats of completed iterations in order. StepInto
	// advances the session without recording here.
	History []IterationStats
	// Opts are the iteration options (deadline, faults, retry backoff,
	// participation mask) applied to every Step and StepInto. The zero
	// value keeps the paper's fault-free engine.
	Opts IterOptions

	// steps counts completed iterations (= len(History) unless StepInto
	// was used), so K keeps indexing fault schedules on the history-free
	// hot path.
	steps int
	// devScratch is StepInto's reusable per-device stats buffer.
	devScratch []DeviceIterStats
}

// NewSession starts a session at the given wall-clock time (the paper's
// "randomly select a federated learning start time t¹").
func NewSession(sys *System, startTime float64) (*Session, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if startTime < 0 || math.IsNaN(startTime) || math.IsInf(startTime, 0) {
		return nil, fmt.Errorf("fl: invalid start time %v", startTime)
	}
	return &Session{Sys: sys, Clock: startTime}, nil
}

// Step runs the next iteration with the given frequencies under the
// session's Opts, advances the clock and records the iteration (with its
// own copy of the per-device stats) in History.
func (ses *Session) Step(freqs []float64) (IterationStats, error) {
	it, err := ses.StepInto(freqs)
	if err != nil {
		return IterationStats{}, err
	}
	it.Devices = append([]DeviceIterStats(nil), it.Devices...)
	ses.History = append(ses.History, it)
	return it, nil
}

// StepInto is Step without the history record: the returned stats' Devices
// alias a per-session scratch buffer that the next Step or StepInto
// overwrites, and
// nothing is appended to History. In steady state the call performs no
// allocation, which is what keeps the RL training loop's environment step
// allocation-free (the trainer consumes each iteration's stats immediately
// and never replays session history). K still advances, so fault schedules
// stay correctly indexed.
func (ses *Session) StepInto(freqs []float64) (IterationStats, error) {
	it, err := ses.Sys.RunIterationOptsInto(ses.steps, ses.Clock, freqs, ses.Opts, ses.devScratch)
	if err != nil {
		return IterationStats{}, err
	}
	ses.devScratch = it.Devices
	ses.Clock += it.Duration
	ses.steps++
	return it, nil
}

// K returns the number of completed iterations.
func (ses *Session) K() int { return ses.steps }

// LastBandwidths returns each device's most recently realized average
// bandwidth — the information the Heuristic baseline [3] acts on — or nil
// before the first iteration. Under client selection a device may not have
// participated in the latest iteration (its entry is zero there), so the
// lookup walks history backwards per device; a device never observed falls
// back to its trace's long-run mean.
func (ses *Session) LastBandwidths() []float64 {
	if len(ses.History) == 0 {
		return nil
	}
	n := len(ses.Sys.Devices)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := len(ses.History) - 1; k >= 0; k-- {
			if bw := ses.History[k].Devices[i].AvgBandwidth; bw > 0 {
				out[i] = bw
				break
			}
		}
		if out[i] <= 0 {
			out[i] = ses.Sys.Traces[i].Summary().Mean
		}
	}
	return out
}

// Reward returns the DRL reward (eq. 13) for an iteration: the negated cost.
func Reward(it IterationStats) float64 { return -it.Cost }
