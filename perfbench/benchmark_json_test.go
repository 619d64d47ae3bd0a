package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// BENCHMARK.json at the repository root declares what a run prints; the
// workloads, metric names and units must match the code exactly.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}

	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if got := workloadNames(); !equalStrings(got, declared) {
		t.Errorf("workloads: code has %v, BENCHMARK.json %v", got, declared)
	}

	var out outcome
	requestMetrics(&out, summary{}, nil, []float64{1})
	if len(out.e2e) != len(b.EndToEnd) {
		t.Fatalf("end-to-end: code prints %d metrics, BENCHMARK.json declares %d", len(out.e2e), len(b.EndToEnd))
	}
	for i, m := range out.e2e {
		if m.name != b.EndToEnd[i].Name || m.unit != b.EndToEnd[i].Unit {
			t.Errorf("end-to-end %d: code %s %s, BENCHMARK.json %s %s", i, m.name, m.unit, b.EndToEnd[i].Name, b.EndToEnd[i].Unit)
		}
	}
	if len(layerMetrics) != len(b.PerLayer) {
		t.Fatalf("per-layer: code prints %d metrics, BENCHMARK.json declares %d", len(layerMetrics), len(b.PerLayer))
	}
	for i, m := range layerMetrics {
		if m.name != b.PerLayer[i].Name || m.unit != b.PerLayer[i].Unit {
			t.Errorf("per-layer %d: code %s %s, BENCHMARK.json %s %s", i, m.name, m.unit, b.PerLayer[i].Name, b.PerLayer[i].Unit)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
