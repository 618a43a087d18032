package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestMetricsMatchBenchmarkJSON pins the metric names and units the
// program prints to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name, Unit string }) []metricSpec {
		var out []metricSpec
		for _, x := range xs {
			out = append(out, metricSpec{x.Name, x.Unit})
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEndSpecs) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", got, endToEndSpecs)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, layerSpecs) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", got, layerSpecs)
	}
	var workloads []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", workloads, workloadNames)
	}
}
