package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.95); got != 7 {
		t.Errorf("single sample: got %d", got)
	}
}

// A tail percentile is reported only when at least ten samples lie beyond it.
func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{199, 0.95, false}, // ceil(189.05)=190 -> 9 beyond
		{200, 0.95, true},  // 190 -> 10 beyond
		{999, 0.99, false},
		{1000, 0.99, true},
		{10000, 0.999, true},
		{9999, 0.999, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestOverRounds(t *testing.T) {
	vals := []float64{5, 1, 9, 3}
	got := overRounds(vals)
	if got.Median != 4 || got.Min != 1 || got.Max != 9 || got.Rounds != 4 {
		t.Errorf("even count: %+v", got)
	}
	if vals[0] != 5 {
		t.Error("overRounds reordered its input")
	}
	if got := overRounds([]float64{2, 100, 3}); got.Median != 3 {
		t.Errorf("odd count: median %v, want 3 (one disturbed round must not move it)", got.Median)
	}
	if got := overRounds(nil); got.Rounds != 0 {
		t.Errorf("empty: %+v", got)
	}
}
