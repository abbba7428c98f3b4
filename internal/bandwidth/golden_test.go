package bandwidth_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/experiments"
	"repro/internal/hier"
	"repro/internal/trace"
)

// digest hashes the traces' names, intervals and every sample's
// Float64bits, so any change to a generated bit, or to a name, moves it.
func digest(trs ...*trace.Trace) string {
	h := fnv.New64a()
	var b [8]byte
	word := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	for _, tr := range trs {
		h.Write([]byte(tr.Name))
		word(tr.Interval)
		for _, s := range tr.Samples {
			word(s)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGeneratorGoldenDigests pins the generator's output bit for bit:
// every built-in profile at two seeds, the N=50 simulation scenario's
// per-device set and the default hier fleet's trace pool. The digests were
// recorded before the generator and the set-generation loops were
// restructured for speed, and the test uses only API that predates that
// restructuring; a change that moves any digest changes every
// trace-driven result in the repository.
func TestGeneratorGoldenDigests(t *testing.T) {
	profiles := []*bandwidth.Profile{
		bandwidth.Walking4G(), bandwidth.BusHSDPA(), bandwidth.Train4G(),
		bandwidth.Car4G(), bandwidth.Bicycle4G(),
	}
	profiles = append(profiles, bandwidth.WalkingProfiles()...)
	// Two variants reach the branches no built-in profile does: no drift,
	// and regime means so small that the noise scale's floor of 1 binds.
	flat := bandwidth.Walking4G()
	flat.Name, flat.Drift = "walking-4g-nodrift", bandwidth.Drift{}
	tiny := bandwidth.Walking4G()
	tiny.Name, tiny.Floor = "walking-4g-sub1", 0
	for i := range tiny.Regimes {
		tiny.Regimes[i].Mean *= 1e-7
	}
	profiles = append(profiles, flat, tiny)

	want := map[string]string{
		"walking-4g/1":                "2aeb5876959a51e1",
		"walking-4g/20200518":         "85bb0932490d8fe9",
		"bus-hsdpa/1":                 "61e512efe8e617de",
		"bus-hsdpa/20200518":          "8e493b5549035dee",
		"train-4g/1":                  "8de6c961123e03e9",
		"train-4g/20200518":           "86f85e98ba85b8d2",
		"car-4g/1":                    "b506898be11b70c7",
		"car-4g/20200518":             "ee8904c3718deee4",
		"bicycle-4g/1":                "104f551251ac254f",
		"bicycle-4g/20200518":         "736ab7d813be2b4d",
		"walking-4g-1/1":              "f951c9dc9fb2cd1b",
		"walking-4g-1/20200518":       "a9176b4ccce84e6f",
		"walking-4g-2/1":              "fdf08d8ee3cbab66",
		"walking-4g-2/20200518":       "23533335324d5c96",
		"walking-4g-3/1":              "945de3c5aec79c95",
		"walking-4g-3/20200518":       "d3925d55f0ecac7a",
		"walking-4g-4/1":              "9845dd13e9765439",
		"walking-4g-4/20200518":       "8e2786afcbe97ba5",
		"walking-4g-5/1":              "cd558f3fb334019b",
		"walking-4g-5/20200518":       "69ef611fd2fafbf2",
		"walking-4g-nodrift/1":        "e840fdf6c637be27",
		"walking-4g-nodrift/20200518": "bcd3318c2d8141ae",
		"walking-4g-sub1/1":           "8a0ef6a3282b64b5",
		"walking-4g-sub1/20200518":    "3cb8c1a248eeaeaa",
		"scenario-50":                 "25503e4c2f807b76",
		"hier-pool":                   "0aa1510e32d68c2b",
	}
	for _, p := range profiles {
		for _, seed := range []int64{1, 20200518} {
			key := fmt.Sprintf("%s/%d", p.Name, seed)
			tr, err := p.Generate(key, 4000, seed)
			if err != nil {
				t.Fatal(err)
			}
			checkDigest(t, key, digest(tr), want)
		}
	}

	sys, err := experiments.SimulationScenario(50, 7).Build()
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "scenario-50", digest(sys.Traces...), want)

	f, err := hier.NewFleet(200, hier.FleetOptions{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "hier-pool", digest(f.Pool...), want)
}

func checkDigest(t *testing.T, key, got string, want map[string]string) {
	t.Helper()
	if got != want[key] {
		t.Errorf("%s: digest %s, want %s", key, got, want[key])
	}
}
