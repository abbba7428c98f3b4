package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fl"
	"repro/internal/testutil"
)

func TestFullParticipation(t *testing.T) {
	sys := constSystem([]float64{1e6, 2e6, 3e6})
	mask, err := (FullParticipation{}).Select(Context{Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range mask {
		if !p {
			t.Fatalf("device %d excluded", i)
		}
	}
	if (FullParticipation{}).Name() != "full" {
		t.Fatal("name")
	}
}

func TestRandomFraction(t *testing.T) {
	sys := constSystem([]float64{1e6, 1e6, 1e6, 1e6, 1e6})
	r, err := NewRandomFraction(0.4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for trial := 0; trial < 30; trial++ {
		mask, err := r.Select(Context{Sys: sys})
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for i, p := range mask {
			if p {
				count++
				seen[i] = true
			}
		}
		if count != 2 { // ⌈0.4·5⌉
			t.Fatalf("selected %d of 5 at C=0.4", count)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("selection never rotated: %v", seen)
	}
	if _, err := NewRandomFraction(0, nil); err == nil {
		t.Fatal("C=0 accepted")
	}
	if _, err := NewRandomFraction(1.5, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("C>1 accepted")
	}
	if _, err := NewRandomFraction(0.5, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestDeadlineSelectorExcludesStragglers(t *testing.T) {
	// Device 2 has a 1 MB/s link: upload alone takes 25 s. A 20 s deadline
	// must exclude it while keeping the fast devices.
	sys := constSystem([]float64{8e6, 8e6, 1e6})
	sel, err := NewDeadlineSelector(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	mask, err := sel.Select(Context{Sys: sys, LastBW: []float64{8e6, 8e6, 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	if mask[2] {
		t.Fatal("straggler admitted past the deadline")
	}
	if !mask[0] || !mask[1] {
		t.Fatal("fast devices excluded")
	}
	// An impossible deadline still admits MinClients.
	tight, _ := NewDeadlineSelector(0.001, 2)
	mask2, err := tight.Select(Context{Sys: sys, LastBW: []float64{8e6, 8e6, 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(fl.Participants(mask2)); got != 2 {
		t.Fatalf("min-clients floor broken: %d", got)
	}
	if _, err := NewDeadlineSelector(0, 1); err == nil {
		t.Fatal("zero deadline accepted")
	}
	if _, err := NewDeadlineSelector(10, 0); err == nil {
		t.Fatal("zero min clients accepted")
	}
}

func TestRunWithSelectionSpeedsRounds(t *testing.T) {
	// Excluding the slow-link device must shorten rounds vs full
	// participation at the same frequencies.
	sys := constSystem([]float64{8e6, 8e6, 0.5e6})
	sel, _ := NewDeadlineSelector(25, 1)
	rounds, err := RunWithSelection(sys, MaxFreq{}, sel, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunWithSelection(sys, MaxFreq{}, FullParticipation{}, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	sSel, sFull := Summarize(rounds), Summarize(full)
	if sSel.MeanTime >= sFull.MeanTime {
		t.Fatalf("selection did not speed rounds: %v vs %v", sSel.MeanTime, sFull.MeanTime)
	}
	if sSel.MeanParticipants >= sFull.MeanParticipants {
		t.Fatalf("selection did not shrink rounds: %v vs %v", sSel.MeanParticipants, sFull.MeanParticipants)
	}
	if sFull.MeanParticipants != 3 {
		t.Fatalf("full participation = %v", sFull.MeanParticipants)
	}
	if sSel.UpdatesPerSecond <= 0 || sFull.UpdatesPerSecond <= 0 {
		t.Fatal("update rates must be positive")
	}
	if _, err := RunWithSelection(sys, MaxFreq{}, sel, 0, 0); err == nil {
		t.Fatal("zero iterations accepted")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.MeanCost != 0 || s.UpdatesPerSecond != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSubsetIterationSemantics(t *testing.T) {
	sys := constSystem([]float64{5e6, 2e6, 1e6})
	freqs := make([]float64, 3)
	for i, d := range sys.Devices {
		freqs[i] = d.MaxFreqHz
	}
	subset := func(freqs []float64, mask []bool) (fl.IterationStats, error) {
		return sys.RunIterationOptsInto(0, 0, freqs, fl.IterOptions{Participants: mask}, nil)
	}
	mask := []bool{true, false, true}
	it, err := subset(freqs, mask)
	if err != nil {
		t.Fatal(err)
	}
	// The excluded device contributes nothing.
	if it.Devices[1].ComputeEnergy != 0 || it.Devices[1].TotalTime != 0 {
		t.Fatalf("excluded device has activity: %+v", it.Devices[1])
	}
	// Barrier ranges over participants only.
	want := math.Max(it.Devices[0].TotalTime, it.Devices[2].TotalTime)
	testutil.AssertWithin(t, "duration", it.Duration, want, 1e-9)
	// A reused buffer holding a full round's stats must not leak them into
	// the excluded device's entry.
	full, err := sys.RunIteration(0, 0, freqs)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := sys.RunIterationOptsInto(0, 0, freqs, fl.IterOptions{Participants: mask}, full.Devices)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reused, it) {
		t.Fatalf("reused buffer changed the round:\n%+v\n%+v", reused, it)
	}
	// Errors: empty mask, bad lengths, bad frequency for a participant.
	if _, err := subset(freqs, []bool{false, false, false}); err == nil {
		t.Fatal("empty participation accepted")
	}
	if _, err := subset(freqs, []bool{true}); err == nil {
		t.Fatal("short mask accepted")
	}
	bad := append([]float64(nil), freqs...)
	bad[0] = 0
	if _, err := subset(bad, mask); err == nil {
		t.Fatal("zero frequency for participant accepted")
	}
	// Non-participant frequency is ignored even if invalid.
	bad2 := append([]float64(nil), freqs...)
	bad2[1] = 0
	if _, err := subset(bad2, mask); err != nil {
		t.Fatalf("non-participant frequency should be ignored: %v", err)
	}
	if got := fl.Participants(mask); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("participants = %v", got)
	}
}
