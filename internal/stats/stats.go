// Package stats provides the summary statistics used throughout the paper's
// evaluation: mean, standard deviation, maximum, minimum and standard error,
// plus the outlier-trimming procedure ("the discovery process was carried out
// 120 times and the first 100 results were selected after removing outliers").
package stats

import (
	"errors"
	"math"
	"sort"
)

// Summary holds the five metrics reported in the paper's figures
// (Figures 3–7, 12, 13 and 14 all print this exact set of rows).
type Summary struct {
	N       int     // number of samples summarised
	Mean    float64 // arithmetic mean
	StdDev  float64 // sample standard deviation (n-1 denominator)
	Max     float64 // maximum
	Min     float64 // minimum
	Err     float64 // standard error of the mean: StdDev / sqrt(N)
	Median  float64 // 50th percentile (not in the paper tables; useful extra)
	Sum     float64 // total
	Samples []float64
}

// ErrNoSamples is returned when a summary is requested for an empty data set.
var ErrNoSamples = errors.New("stats: no samples")

// Summarize computes a Summary over xs. It does not modify xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrNoSamples
	}
	s := Summary{N: len(xs), Max: math.Inf(-1), Min: math.Inf(1)}
	for _, x := range xs {
		s.Sum += x
		if x > s.Max {
			s.Max = x
		}
		if x < s.Min {
			s.Min = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
		s.Err = s.StdDev / math.Sqrt(float64(s.N))
	}
	s.Median = Percentile(xs, 50)
	s.Samples = append([]float64(nil), xs...)
	return s, nil
}

// MustSummarize is Summarize for data known to be non-empty (test harnesses).
func MustSummarize(xs []float64) Summary {
	s, err := Summarize(xs)
	if err != nil {
		panic(err)
	}
	return s
}

// Percentile returns the p-th percentile (0–100) of xs using linear
// interpolation between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TrimOutliers reproduces the paper's sample-selection procedure: from a run
// of len(xs) measurements, remove outliers and keep the first `keep` results
// in their original order. A sample is an outlier when it lies more than k
// standard deviations from the mean (the conventional choice k=2 matches the
// paper's visibly clipped maxima). If fewer than keep samples survive, all
// survivors are returned.
func TrimOutliers(xs []float64, keep int, k float64) []float64 {
	if len(xs) == 0 || keep <= 0 {
		return nil
	}
	s, _ := Summarize(xs)
	lo, hi := s.Mean-k*s.StdDev, s.Mean+k*s.StdDev
	out := make([]float64, 0, keep)
	for _, x := range xs {
		if x < lo || x > hi {
			continue
		}
		out = append(out, x)
		if len(out) == keep {
			break
		}
	}
	return out
}
