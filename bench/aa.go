package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the A/A check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func medianOf(vals []float64) float64 { return overRounds(vals).Median }

// spreadOf is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives (the exclusive method), so the figure matches the driver's.
func spreadOf(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / medianOf(vals)
}

// runAA runs two full sets of the measured run back to back on the same
// tree — every workload, runs times each, the same seeds in both sets — and
// prints, per workload and end-to-end metric, both medians, their relative
// difference, the spread within each set, and PASS or FAIL against the
// metric's bound. It fails if any pairing does, or any operation failed.
func runAA(root string, bins *binaries, seed int64, seconds float64, runs int) error {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	failed := 0
	for set := range sets {
		for i := range workloads {
			w := &workloads[i]
			for r := 0; r < runs; r++ {
				o := runOpts{root: root, bins: bins, w: w, seed: seed + int64(r), seconds: seconds, dur: [2]time.Duration{closedDur, openDur}}
				rep, err := runWorkload(o)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d: attempted %d failed %d\n", set+1, w.Name, o.seed, rep.Attempted, rep.Failed)
				if !rep.correct() {
					failed++
				}
				for name, m := range rep.Metrics {
					k := key{w.Name, name}
					sets[set][k] = append(sets[set][k], m.Value)
				}
			}
		}
	}
	fmt.Printf("%-18s %-15s %14s %14s %8s %8s %8s %6s  %s\n", "workload", "metric", "set 1", "set 2", "worse by", "spread 1", "spread 2", "bound", "")
	bad := 0
	for i := range workloads {
		for _, m := range bf.EndToEnd {
			k := key{workloads[i].Name, m.Name}
			a, b := medianOf(sets[0][k]), medianOf(sets[1][k])
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "PASS"
			if worse > m.Bound {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("%-18s %-15s %14.4f %14.4f %+8.3f %8.3f %8.3f %6.2f  %s\n", k.workload, k.metric, a, b, worse, spreadOf(sets[0][k]), spreadOf(sets[1][k]), m.Bound, verdict)
		}
	}
	fmt.Printf("runs with a failed operation or check: %d\n", failed)
	if bad > 0 || failed > 0 {
		return fmt.Errorf("bench: A/A check failed: %d pairings beyond their bound, %d incorrect runs", bad, failed)
	}
	return nil
}
