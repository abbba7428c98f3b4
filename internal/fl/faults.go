package fl

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/fault"
)

// This file holds the one kernel of the synchronous iteration, eqs. (1)-(6),
// that every entry point runs: RunIteration, Session.Step and
// Session.StepInto all call RunIterationOptsInto. Its IterOptions grow the
// paper's engine toward realistic fleets: a barrier deadline with partial
// aggregation (devices that miss the deadline are dropped from the round
// instead of holding the barrier hostage, the FedCS-style remedy),
// retry-with-backoff on blacked-out uploads, composition with the seeded
// fault processes of internal/fault, and client selection by participation
// mask. The zero-valued IterOptions reproduce the paper's fault-free engine
// bit-for-bit.

// DefaultRetryBackoffSec is the wait before the first upload retry when
// IterOptions.RetryBackoffSec is left zero; each further retry doubles it.
const DefaultRetryBackoffSec = 1.0

// IterOptions extends RunIteration with fault tolerance. The zero value is
// exactly the paper's engine: no deadline, no faults, no retries.
type IterOptions struct {
	// Deadline is the barrier deadline T_max per iteration (seconds,
	// relative to the iteration start). Devices whose total time exceeds it
	// are dropped from the round: excluded from the barrier maximum, their
	// partial upload wasted. 0 disables the deadline.
	Deadline float64
	// Faults supplies the per-(iteration, device) fault states. nil means
	// fault-free.
	Faults *fault.Schedule
	// RetryBackoffSec is the wait before the first retry of a blacked-out
	// upload; retry r waits RetryBackoffSec·2^r. 0 selects
	// DefaultRetryBackoffSec (only relevant when a fault schedule injects
	// upload failures).
	RetryBackoffSec float64
	// Participants is the client-selection mask (Nishio & Yonetani [38],
	// cited in §VI), the other lever against stragglers: rather than
	// slowing fast devices down, the server excludes slow ones from the
	// round. Only masked devices compute, upload and burn energy, and the
	// barrier (eq. 5) ranges over them. A non-participant is skipped
	// before its fault lookup and gets zero stats (not Down), so its
	// IdleTime is the whole round and its frequency is ignored. nil means
	// every device participates.
	Participants []bool
}

// Validate checks the options against a system.
func (o IterOptions) Validate(s *System) error {
	if o.Deadline < 0 || math.IsNaN(o.Deadline) || math.IsInf(o.Deadline, 0) {
		return fmt.Errorf("fl: invalid deadline %v", o.Deadline)
	}
	if o.RetryBackoffSec < 0 || math.IsNaN(o.RetryBackoffSec) || math.IsInf(o.RetryBackoffSec, 0) {
		return fmt.Errorf("fl: invalid retry backoff %v", o.RetryBackoffSec)
	}
	if o.Participants != nil && len(o.Participants) != s.N() {
		return fmt.Errorf("fl: %d participation masks for %d devices", len(o.Participants), s.N())
	}
	if o.Faults != nil && o.Faults.N() != s.N() {
		return fmt.Errorf("fl: fault schedule for %d devices, system has %d", o.Faults.N(), s.N())
	}
	if o.Faults != nil && o.Faults.Config().CrashProb > 0 && o.Deadline == 0 {
		// Without a deadline an all-down iteration has no defined duration;
		// crashes therefore require partial aggregation to be enabled.
		return fmt.Errorf("fl: device crashes require a barrier deadline")
	}
	return nil
}

// backoff resolves the retry backoff default.
func (o IterOptions) backoff() float64 {
	if o.RetryBackoffSec > 0 {
		return o.RetryBackoffSec
	}
	return DefaultRetryBackoffSec
}

// retryWait returns the total wait accumulated by `failed` consecutive
// blacked-out upload attempts: Σ_{r<failed} backoff·2^r.
func (o IterOptions) retryWait(failed int) float64 {
	var wait float64
	b := o.backoff()
	for r := 0; r < failed; r++ {
		wait += b
		b *= 2
	}
	return wait
}

// RunIterationOptsInto simulates iteration k starting at startTime with the
// given per-device frequencies under the options, writing the per-device
// stats into a caller-provided buffer: devs is resliced to N() entries
// (reallocated only when its capacity is short) and the returned
// IterationStats.Devices aliases it. With an adequate buffer the engine
// performs no allocation — the zero-allocation contract of the simulation
// hot path (DESIGN.md §10). Callers that retain iteration stats across
// calls (e.g. a session history) must keep passing nil.
//
// Frequencies must lie in (0, δ_i^max]; the engine reports an error rather
// than silently clamping so schedulers stay honest about the action space.
//
// Semantics under the options:
//   - A non-participant (Participants mask) sits the round out with zero
//     stats and is not counted as a survivor.
//   - A Down device sits the round out: zero stats, Down marked, no energy.
//   - FailedUploads delay a device's upload start by the exponential-backoff
//     wait; the blacked-out attempts transmit nothing and burn no tx energy.
//   - ComputeMult > 1 stretches both compute time and compute energy
//     (a straggler spike scales the workload τ·c·D).
//   - With Deadline > 0, devices whose TotalTime exceeds it are Dropped:
//     excluded from the barrier maximum, compute energy fully charged
//     (the local training ran), tx energy charged only for the transmission
//     time that fit before the deadline, AvgBandwidth measured over that
//     window. The paper's cost (eq. 9) keeps charging their wasted energy.
//   - An iteration with zero survivors lasts exactly Deadline.
func (s *System) RunIterationOptsInto(k int, startTime float64, freqs []float64, opts IterOptions, devs []DeviceIterStats) (IterationStats, error) {
	if err := s.Validate(); err != nil {
		return IterationStats{}, err
	}
	if err := opts.Validate(s); err != nil {
		return IterationStats{}, err
	}
	if len(freqs) != s.N() {
		return IterationStats{}, fmt.Errorf("fl: %d frequencies for %d devices", len(freqs), s.N())
	}
	if cap(devs) < s.N() {
		devs = make([]DeviceIterStats, s.N())
	} else {
		devs = devs[:s.N()]
	}
	it := IterationStats{
		Index:     k,
		StartTime: startTime,
		Devices:   devs,
	}
	skipped := 0
	for i, d := range s.Devices {
		if opts.Participants != nil && !opts.Participants[i] {
			// Not selected: stale stats from a reused buffer must go too.
			it.Devices[i] = DeviceIterStats{}
			skipped++
			continue
		}
		var df fault.DeviceFault
		if opts.Faults != nil {
			df = opts.Faults.At(k, i)
		}
		if df.Down {
			// Crashed for the whole iteration: contributes nothing, costs
			// nothing; IdleTime is set to the round duration below.
			it.Devices[i] = DeviceIterStats{Down: true}
			it.Down++
			continue
		}
		f := freqs[i]
		if err := checkFreq(i, f, d); err != nil {
			return IterationStats{}, err
		}
		tcmp := d.ComputeTime(s.Tau, f)
		computeE := d.ComputeEnergy(s.Tau, f)
		if df.ComputeMult > 1 {
			tcmp *= df.ComputeMult
			computeE *= df.ComputeMult
		}
		wait := 0.0
		if df.FailedUploads > 0 {
			wait = opts.retryWait(df.FailedUploads)
		}
		upStart := startTime + tcmp + wait
		upEnd, err := s.Traces[i].UploadFinish(upStart, s.ModelBytes)
		if err != nil {
			return IterationStats{}, fmt.Errorf("fl: device %d upload: %w", i, err)
		}
		tcom := upEnd - upStart
		var avgBW float64
		if tcom > 0 {
			avgBW = s.ModelBytes / tcom
		} else {
			avgBW = s.Traces[i].At(upStart)
		}
		ds := DeviceIterStats{
			FreqHz:        f,
			ComputeTime:   tcmp,
			ComTime:       tcom,
			TotalTime:     tcmp + wait + tcom,
			AvgBandwidth:  avgBW,
			ComputeEnergy: computeE,
			TxEnergy:      d.TxEnergy(tcom),
			Retries:       df.FailedUploads,
		}
		if opts.Deadline > 0 && ds.TotalTime > opts.Deadline {
			// Missed the barrier deadline: drop from the round. The local
			// computation ran in full (energy spent); the upload is cut off
			// at the deadline — account only the transmission that happened.
			ds.Dropped = true
			txTime := opts.Deadline - (tcmp + wait)
			if txTime < 0 {
				txTime = 0
			}
			if txTime > tcom {
				txTime = tcom
			}
			ds.ComTime = txTime
			ds.TotalTime = opts.Deadline
			ds.TxEnergy = d.TxEnergy(txTime)
			if txTime > 0 {
				ds.AvgBandwidth = s.Traces[i].Integrate(upStart, upStart+txTime) / txTime
			} else {
				ds.AvgBandwidth = 0
			}
			it.Dropped++
		}
		it.Devices[i] = ds
		it.ComputeEnergy += ds.ComputeEnergy
		it.TxEnergy += ds.TxEnergy
		if !ds.Dropped && ds.TotalTime > it.Duration {
			it.Duration = ds.TotalTime
		}
	}
	if skipped == s.N() {
		return IterationStats{}, fmt.Errorf("fl: no participating devices in iteration %d", k)
	}
	it.Survivors = s.N() - skipped - it.Down - it.Dropped
	if it.Survivors == 0 {
		if opts.Deadline == 0 {
			return IterationStats{}, fmt.Errorf("fl: no live devices in iteration %d", k)
		}
		// The server waits out the full deadline before giving up on the
		// round; eq. (11) still advances the wall clock.
		it.Duration = opts.Deadline
	}
	for i := range it.Devices {
		it.Devices[i].IdleTime = it.Duration - it.Devices[i].TotalTime
	}
	it.Cost = it.Duration + s.Lambda*it.TotalEnergy()
	return it, nil
}

// checkFreq rejects a frequency outside (0, δ_i^max]. !(f > 0) rather than
// f <= 0: NaN fails both orderings, and a NaN frequency must be rejected
// here, not propagated into the timing model (+Inf is caught by the upper
// bound).
func checkFreq(i int, f float64, d *device.Device) error {
	if !(f > 0) || f > d.MaxFreqHz*(1+1e-9) {
		return fmt.Errorf("fl: device %d frequency %v outside (0, %v]", i, f, d.MaxFreqHz)
	}
	return nil
}

// Participants extracts the mask's participating-device indices.
func Participants(mask []bool) []int {
	var out []int
	for i, p := range mask {
		if p {
			out = append(out, i)
		}
	}
	return out
}
