package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkContract is BENCHMARK.json as far as the code must agree with it.
type benchmarkContract struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) benchmarkContract {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkContract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	c := readContract(t)
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, the code's default is %v", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(c.EndToEnd) != len(endToEndUnits) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(c.EndToEnd), len(endToEndUnits))
	}
	for i, m := range c.EndToEnd {
		if m.Name != endToEndUnits[i].name || m.Unit != endToEndUnits[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s], the code %s [%s]", i, m.Name, m.Unit, endToEndUnits[i].name, endToEndUnits[i].unit)
		}
	}
}
