package fl

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/testutil"
)

// Options that change nothing — an all-true participation mask, a reused
// buffer holding stale stats — must reproduce the fault-free engine
// bit-for-bit.
func TestZeroOptsBitIdentical(t *testing.T) {
	s := testSystem()
	fs := maxFreqs(s)
	plain, err := s.RunIteration(3, 17.25, fs)
	if err != nil {
		t.Fatal(err)
	}
	stale := make([]DeviceIterStats, s.N())
	for i := range stale {
		stale[i] = DeviceIterStats{Down: true, Dropped: true, Retries: 7, IdleTime: 1}
	}
	all := []bool{true, true, true}
	opted, err := s.RunIterationOptsInto(3, 17.25, fs, IterOptions{Participants: all}, stale)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, opted) {
		t.Fatalf("zero IterOptions diverge:\nplain %+v\nopts  %+v", plain, opted)
	}
	if plain.Survivors != s.N() || plain.Dropped != 0 || plain.Down != 0 {
		t.Fatalf("fault-free accounting wrong: %+v", plain)
	}
}

func TestDeadlineDropsStraggler(t *testing.T) {
	s := testSystem() // totals at max freq: 8.4, 9.8, 14 s
	fs := maxFreqs(s)
	for _, d := range s.Devices {
		d.TxEnergyPerSec = 0.1
	}
	it, err := s.RunIterationOptsInto(0, 0, fs, IterOptions{Deadline: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if it.Survivors != 2 || it.Dropped != 1 || it.Down != 0 {
		t.Fatalf("accounting: %+v", it)
	}
	if !it.Devices[2].Dropped || it.Devices[0].Dropped || it.Devices[1].Dropped {
		t.Fatalf("wrong device dropped: %+v", it.Devices)
	}
	// Barrier ranges over survivors only: Duration = max(8.4, 9.8).
	testutil.AssertWithin(t, "duration", it.Duration, 9.8, 1e-9)
	d2 := it.Devices[2]
	// Device 2 computed for 4 s, then transmitted until the 10 s deadline:
	// 6 s of its 10 s upload at 1 MB/s.
	testutil.AssertWithin(t, "dropped ComTime", d2.ComTime, 6, 1e-9)
	testutil.AssertWithin(t, "dropped TotalTime", d2.TotalTime, 10, 1e-9)
	testutil.AssertWithin(t, "dropped TxEnergy", d2.TxEnergy, 0.6, 1e-9)
	testutil.AssertWithin(t, "dropped AvgBandwidth", d2.AvgBandwidth, 1e6, 1e-3)
	// The wasted local computation is still charged in full.
	full, err := s.RunIteration(0, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	testutil.AssertWithin(t, "dropped ComputeEnergy",
		d2.ComputeEnergy, full.Devices[2].ComputeEnergy, 0)
	if it.Cost <= it.Duration {
		t.Fatal("cost must include energy")
	}
}

func TestDeadlineGenerousKeepsEveryone(t *testing.T) {
	s := testSystem()
	fs := maxFreqs(s)
	it, err := s.RunIterationOptsInto(0, 0, fs, IterOptions{Deadline: 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.RunIteration(0, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(it, full) {
		t.Fatalf("generous deadline changed outcome:\nwith %+v\nwithout %+v", it, full)
	}
}

func TestAllCrashedRoundLastsDeadline(t *testing.T) {
	s := testSystem()
	fs := maxFreqs(s)
	// CrashProb 1: every device crashes entering iteration 1 (uniforms are
	// strictly below 1) regardless of seed.
	sched := fault.MustNewSchedule(fault.Config{CrashProb: 1, RejoinProb: 0.5}, s.N(), 7)
	opts := IterOptions{Deadline: 12, Faults: sched}
	it, err := s.RunIterationOptsInto(1, 0, fs, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if it.Survivors != 0 || it.Down != s.N() {
		t.Fatalf("expected all down: %+v", it)
	}
	testutil.AssertWithin(t, "duration", it.Duration, 12, 0)
	if it.TotalEnergy() != 0 {
		t.Fatalf("crashed fleet burned energy: %v", it.TotalEnergy())
	}
	testutil.AssertWithin(t, "cost", it.Cost, 12, 0)
	for i, ds := range it.Devices {
		if !ds.Down || ds.ComputeTime != 0 || ds.TotalTime != 0 {
			t.Fatalf("device %d stats not zeroed: %+v", i, ds)
		}
		testutil.AssertWithin(t, "idle", ds.IdleTime, 12, 0)
	}
}

func TestStragglerSpikeStretchesComputeAndEnergy(t *testing.T) {
	s := testSystem()
	fs := maxFreqs(s)
	// StragglerProb 1 spikes every device every iteration at the default ×4.
	sched := fault.MustNewSchedule(fault.Config{StragglerProb: 1}, s.N(), 3)
	it, err := s.RunIterationOptsInto(0, 0, fs, IterOptions{Faults: sched}, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.RunIteration(0, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range it.Devices {
		testutil.AssertClose(t, "spiked compute time",
			it.Devices[i].ComputeTime, 4*base.Devices[i].ComputeTime, 1e-12, 0)
		testutil.AssertClose(t, "spiked compute energy",
			it.Devices[i].ComputeEnergy, 4*base.Devices[i].ComputeEnergy, 1e-12, 0)
		// Constant traces: the upload itself is unchanged.
		testutil.AssertClose(t, "com time",
			it.Devices[i].ComTime, base.Devices[i].ComTime, 1e-12, 0)
	}
	if it.Survivors != s.N() {
		t.Fatalf("stragglers are not casualties: %+v", it)
	}
}

func TestBlackoutRetriesDelayUpload(t *testing.T) {
	s := testSystem()
	fs := maxFreqs(s)
	cfg := fault.Config{BlackoutProb: 0.9, MaxRetries: 2}
	sched := fault.MustNewSchedule(cfg, s.N(), 5)
	// Find an iteration where device 0 fails both attempts.
	k := -1
	for q := 0; q < 200; q++ {
		if sched.At(q, 0).FailedUploads == 2 {
			k = q
			break
		}
	}
	if k < 0 {
		t.Fatal("no double blackout in 200 iterations at p=0.9")
	}
	it, err := s.RunIterationOptsInto(k, 0, fs, IterOptions{Faults: sched, RetryBackoffSec: 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.RunIteration(k, 0, fs)
	if err != nil {
		t.Fatal(err)
	}
	// Two failed attempts wait 0.5 + 1.0 = 1.5 s; constant trace keeps tcom
	// unchanged, so the device's round stretches by exactly the backoff.
	d0, b0 := it.Devices[0], base.Devices[0]
	if d0.Retries != 2 {
		t.Fatalf("retries = %d", d0.Retries)
	}
	testutil.AssertWithin(t, "delayed total", d0.TotalTime, b0.TotalTime+1.5, 1e-9)
	testutil.AssertWithin(t, "tx energy unchanged", d0.TxEnergy, b0.TxEnergy, 1e-12)
}

func TestDefaultBackoffApplied(t *testing.T) {
	var o IterOptions
	if got := o.retryWait(3); math.Abs(got-(1+2+4)) > 1e-12 {
		t.Fatalf("default backoff wait = %v, want 7", got)
	}
	o.RetryBackoffSec = 2
	if got := o.retryWait(2); math.Abs(got-(2+4)) > 1e-12 {
		t.Fatalf("custom backoff wait = %v, want 6", got)
	}
	if o.retryWait(0) != 0 {
		t.Fatal("zero failures must wait zero")
	}
}

func TestIterOptionsValidate(t *testing.T) {
	s := testSystem()
	fs := maxFreqs(s)
	bad := []IterOptions{
		{Deadline: -1},
		{Deadline: math.NaN()},
		{RetryBackoffSec: -0.1},
		{Faults: fault.MustNewSchedule(fault.Config{}, 5, 1)},                                // wrong fleet size
		{Faults: fault.MustNewSchedule(fault.Config{CrashProb: 0.5, RejoinProb: 0.5}, 3, 1)}, // crashes need deadline
		{Participants: []bool{true, true}},                                                   // wrong mask length
	}
	for i, o := range bad {
		if _, err := s.RunIterationOptsInto(0, 0, fs, o, nil); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
}

// Same fault seed must yield the same faulty trajectory — costs, survivor
// sets, clock — across independent sessions.
func TestFaultySessionDeterminism(t *testing.T) {
	run := func() []IterationStats {
		s := testSystem()
		sched := fault.MustNewSchedule(fault.Config{
			CrashProb: 0.2, RejoinProb: 0.5, BlackoutProb: 0.3, StragglerProb: 0.2,
		}, s.N(), 99)
		ses, err := NewSession(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		ses.Opts = IterOptions{Deadline: 30, Faults: sched}
		for k := 0; k < 40; k++ {
			if _, err := ses.Step(maxFreqs(s)); err != nil {
				t.Fatal(err)
			}
		}
		return ses.History
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical fault seeds produced different trajectories")
	}
	// The fault processes must actually have fired over 40 iterations.
	var down, dropped, retried int
	for _, it := range a {
		down += it.Down
		dropped += it.Dropped
		for _, ds := range it.Devices {
			retried += ds.Retries
		}
	}
	if down == 0 || retried == 0 {
		t.Fatalf("fault schedule inert: down=%d dropped=%d retried=%d", down, dropped, retried)
	}
}

func TestSessionOptsAdvanceClock(t *testing.T) {
	s := testSystem()
	ses, err := NewSession(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	ses.Opts = IterOptions{Deadline: 10}
	it, err := ses.Step(maxFreqs(s))
	if err != nil {
		t.Fatal(err)
	}
	testutil.AssertWithin(t, "clock", ses.Clock, 5+it.Duration, 0)
	if it.Dropped != 1 { // device 2 needs 14 s
		t.Fatalf("deadline not applied through session: %+v", it)
	}
}

// TestNonFiniteInputsRejected: a NaN frequency passes a `f <= 0` check and
// a NaN start time passes the `t0 < 0` clamp, and either one used to reach
// the trace's segment lookup and panic with an index out of range. Every
// entry point must return an error instead.
func TestNonFiniteInputsRejected(t *testing.T) {
	s := testSystem()
	nanFreq := maxFreqs(s)
	nanFreq[1] = math.NaN()
	mask := []bool{true, true, false}
	cases := []struct {
		name string
		run  func() error
	}{
		{"mask/nan-freq", func() error {
			_, err := s.RunIterationOptsInto(0, 0, nanFreq, IterOptions{Participants: mask}, nil)
			return err
		}},
		{"async/nan-freq", func() error {
			_, err := s.RunAsync(0, nanFreq, 5)
			return err
		}},
		{"async/nan-start", func() error {
			_, err := s.RunAsync(math.NaN(), maxFreqs(s), 5)
			return err
		}},
		{"iteration/nan-start", func() error {
			_, err := s.RunIteration(0, math.NaN(), maxFreqs(s))
			return err
		}},
		{"iteration/inf-start", func() error {
			_, err := s.RunIteration(0, math.Inf(1), maxFreqs(s))
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.run(); err == nil {
				t.Fatal("non-finite input accepted")
			}
		})
	}
}
