package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// The metrics a run prints must be exactly those BENCHMARK.json declares,
// with the same units, and every declared workload must exist.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []m, printed []struct{ name, unit string }) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
			return
		}
		for i := range declared {
			if declared[i].Name != printed[i].name || declared[i].Unit != printed[i].unit {
				t.Errorf("%s %d: declared %s [%s], printed %s [%s]", kind, i,
					declared[i].Name, declared[i].Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if got := workloadNames(); len(got) != len(declared) {
		t.Errorf("workloads: declared %v, implemented %v", declared, got)
	} else {
		for i := range got {
			if got[i] != declared[i] {
				t.Errorf("workloads: declared %v, implemented %v", declared, got)
				break
			}
		}
	}
}
