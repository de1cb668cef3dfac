package obs

import (
	"math"
	"testing"
)

// TestHistogramBucketBoundaries pins the le semantics: an observation equal
// to a bound lands in that bound's bucket (Prometheus' v <= le), values
// beyond the last bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{0.01, 0.1, 1}
	cases := []struct {
		v      float64
		bucket int // index into the non-cumulative counts, 3 = +Inf
	}{
		{-5, 0},
		{0, 0},
		{0.005, 0},
		{0.01, 0}, // exactly on the bound: v <= le
		{0.0100001, 1},
		{0.1, 1},
		{0.5, 2},
		{1, 2},
		{1.0001, 3},
		{1e9, 3},
		{math.Inf(1), 3},
	}
	for _, tc := range cases {
		h := newHistogram(bounds)
		h.Observe(tc.v)
		_, counts := h.Snapshot()
		for i, c := range counts {
			want := uint64(0)
			if i == tc.bucket {
				want = 1
			}
			if c != want {
				t.Errorf("Observe(%v): bucket[%d] = %d, want %d", tc.v, i, c, want)
			}
		}
	}
}

func TestHistogramSumCount(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	for _, v := range []float64{0.5, 1.5, 2.5, 3.5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("Count = %d, want 4", h.Count())
	}
	if h.Sum() != 8.0 {
		t.Errorf("Sum = %v, want 8.0", h.Sum())
	}
	_, counts := h.Snapshot()
	want := []uint64{1, 1, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, counts[i], want[i])
		}
	}
}

func TestHistogramRejectsUnsortedBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted buckets did not panic")
		}
	}()
	newHistogram([]float64{1, 1})
}
