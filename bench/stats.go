package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of the samples at
// or below it. sorted must be ascending and non-empty.
func percentile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// supported reports whether n samples leave at least ten samples beyond the
// q-quantile — the rule for which tail percentile a sample can carry.
func supported(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= 10
}

// roundStat summarises one metric over the rounds of a run.
type roundStat struct {
	Median, Min, Max float64
	Rounds           int
}

// overRounds reduces per-round values to their median with min and max. An
// even count takes the mean of the two middle values, as statistics.median
// does.
func overRounds(vals []float64) roundStat {
	if len(vals) == 0 {
		return roundStat{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	med := s[mid]
	if len(s)%2 == 0 {
		med = (s[mid-1] + s[mid]) / 2
	}
	return roundStat{Median: med, Min: s[0], Max: s[len(s)-1], Rounds: len(s)}
}

// single is the roundStat of a figure computed once per run from n samples.
func single(v float64, n int) roundStat {
	return roundStat{Median: v, Min: v, Max: v, Rounds: n}
}

// sortedCopy returns xs (nanoseconds, as int64 or time.Duration) sorted
// ascending without touching xs.
func sortedCopy[T ~int64](xs []T) []int64 {
	s := make([]int64, len(xs))
	for i, x := range xs {
		s[i] = int64(x)
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// percentileUS is percentile for nanosecond samples, in microseconds; an
// empty sample reads 0.
func percentileUS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(percentile(sorted, q)) / 1e3
}
