package stats_test

import (
	"fmt"

	"narada/internal/stats"
)

func ExampleSummarize() {
	s, _ := stats.Summarize([]float64{480, 495, 502, 488, 515})
	fmt.Printf("mean %.1f min %.0f max %.0f\n", s.Mean, s.Min, s.Max)
	// Output: mean 496.0 min 480 max 515
}
