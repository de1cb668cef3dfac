package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeKnownValues(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 {
		t.Errorf("N = %d, want 8", s.N)
	}
	if !almost(s.Mean, 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", s.Mean)
	}
	// Sample std-dev of this classic data set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if !almost(s.StdDev, want, 1e-12) {
		t.Errorf("StdDev = %g, want %g", s.StdDev, want)
	}
	if s.Max != 9 || s.Min != 2 {
		t.Errorf("Max/Min = %g/%g, want 9/2", s.Max, s.Min)
	}
	if !almost(s.Err, want/math.Sqrt(8), 1e-12) {
		t.Errorf("Err = %g, want %g", s.Err, want/math.Sqrt(8))
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrNoSamples {
		t.Fatalf("err = %v, want ErrNoSamples", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{42})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 42 || s.StdDev != 0 || s.Err != 0 || s.Max != 42 || s.Min != 42 {
		t.Fatalf("unexpected summary for single sample: %+v", s)
	}
}

func TestSummaryInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 &&
			s.StdDev >= 0 && s.Err >= 0 && s.Err <= s.StdDev+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	_ = Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestTrimOutliersRemovesSpikes(t *testing.T) {
	xs := make([]float64, 0, 120)
	for i := 0; i < 118; i++ {
		xs = append(xs, 100+float64(i%5))
	}
	xs = append(xs, 100000, 100000) // two gross outliers
	trimmed := TrimOutliers(xs, 100, 2)
	if len(trimmed) != 100 {
		t.Fatalf("kept %d, want 100", len(trimmed))
	}
	for _, x := range trimmed {
		if x > 1000 {
			t.Fatalf("outlier %g survived trimming", x)
		}
	}
}

func TestTrimOutliersPreservesOrder(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got := TrimOutliers(xs, 3, 10)
	want := []float64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestTrimOutliersEdgeCases(t *testing.T) {
	if got := TrimOutliers(nil, 100, 2); got != nil {
		t.Errorf("TrimOutliers(nil) = %v, want nil", got)
	}
	if got := TrimOutliers([]float64{1}, 0, 2); got != nil {
		t.Errorf("keep=0 should yield nil, got %v", got)
	}
	// Fewer survivors than keep: return all survivors.
	got := TrimOutliers([]float64{1, 2}, 100, 2)
	if len(got) != 2 {
		t.Errorf("len = %d, want 2", len(got))
	}
}

func BenchmarkSummarize(b *testing.B) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = Summarize(xs)
	}
}
