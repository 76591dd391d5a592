package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps the root BENCHMARK.json, which the
// driver reads, in step with the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, the contract names exactly 6", len(keys))
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", doc.RunSeconds)
	}
	why := map[string]string{serveWorkloadName: serveWhy}
	for _, w := range cliWorkloads {
		why[w.name] = w.why
	}
	if len(doc.Workloads) != len(why) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(why))
	}
	for _, w := range doc.Workloads {
		if why[w.Name] != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %q: why differs from the program's or exceeds 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Error("per_layer differs from metrics.go")
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("metric %+v breaks the contract's naming limits", d)
		}
		seen[d.Name] = true
		if d.Bound > 0.25 {
			t.Errorf("%s: bound %v above the contract's 0.25", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
}
