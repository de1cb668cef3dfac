package main

import (
	"testing"
	"time"
)

// TestSmoke runs every workload for one short round against real children,
// untraced and traced, and requires every operation to pass its checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bins, err := buildChildren(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopAllFleets)
	for i := range workloads {
		w := &workloads[i]
		o := runOpts{root: root, bins: bins, w: w, seed: 1, seconds: 0.5, dur: [2]time.Duration{250 * time.Millisecond, 250 * time.Millisecond}}
		t.Run(w.Name, func(t *testing.T) {
			rep, err := runWorkload(o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() || rep.Attempted == 0 {
				t.Fatalf("attempted %d failed %d problems %v", rep.Attempted, rep.Failed, rep.Problems)
			}
			for _, m := range endToEndUnits {
				if v, ok := rep.Metrics[m.name]; !ok || v.Value <= 0 {
					t.Errorf("%s = %v", m.name, v)
				}
			}
		})
		t.Run(w.Name+"/traced", func(t *testing.T) {
			rep, err := runTraced(o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() {
				t.Fatalf("failed %d problems %v", rep.Failed, rep.Problems)
			}
			if c := rep.Metrics["bench.replay_span_coverage"].Value; c < 0.9 {
				t.Errorf("replayed layers cover %.2f of the root span, want at least 0.9", c)
			}
			// The traced run reports exactly the per-layer metrics of
			// BENCHMARK.json, with their units.
			want := readContract(t).PerLayer
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s [%s]: reported %v %v", m.Name, m.Unit, ok, got.Unit)
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(rep.Metrics), len(want))
			}
		})
	}
}
