package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"narada/internal/metrics"
	"narada/internal/uuid"
)

const mib = 1024 * 1024

func candidate(name string, latencyMs int, usage metrics.Usage) Candidate {
	return Candidate{
		Response: &DiscoveryResponse{
			RequestID: uuid.Nil,
			Broker:    BrokerInfo{LogicalAddress: name},
			Usage:     usage,
		},
		EstLatency: time.Duration(latencyMs) * time.Millisecond,
	}
}

func idleUsage() metrics.Usage {
	return metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 64 * mib}
}

func TestShortlistTruncatesToTargetSize(t *testing.T) {
	var cands []Candidate
	for i := 0; i < 25; i++ {
		cands = append(cands, candidate(fmt.Sprintf("b%d", i), i, idleUsage()))
	}
	cfg := DefaultSelectionConfig()
	out := Shortlist(cands, cfg)
	if len(out) != DefaultTargetSetSize {
		t.Fatalf("target set size = %d, want %d", len(out), DefaultTargetSetSize)
	}
	// size(T) <= size(N) when fewer responses than the target size.
	small := Shortlist(cands[:3], cfg)
	if len(small) != 3 {
		t.Fatalf("small target set size = %d, want 3", len(small))
	}
}

func TestShortlistOrdersByScore(t *testing.T) {
	out := Shortlist([]Candidate{
		candidate("far", 300, idleUsage()),
		candidate("near", 5, idleUsage()),
		candidate("mid", 80, idleUsage()),
	}, DefaultSelectionConfig())
	want := []string{"near", "mid", "far"}
	for i, w := range want {
		if got := out[i].Response.Broker.LogicalAddress; got != w {
			t.Fatalf("position %d = %s, want %s (scores: %v)", i, got, w, scoresOf(out))
		}
	}
	if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i].Score > out[j].Score }) {
		t.Fatal("shortlist not sorted by descending score")
	}
}

func scoresOf(cs []Candidate) []float64 {
	out := make([]float64, len(cs))
	for i := range cs {
		out[i] = cs[i].Score
	}
	return out
}

func TestShortlistPrefersNewIdleBroker(t *testing.T) {
	// Paper §8 advantage 3: "a newly added broker within a cluster would be
	// preferentially utilized" because responses include the usage metric.
	busy := metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 400 * mib, Links: 30, CPULoad: 0.8}
	fresh := metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 32 * mib, Links: 0, CPULoad: 0.01}
	out := Shortlist([]Candidate{
		candidate("veteran", 10, busy),
		candidate("newcomer", 12, fresh), // barely farther, much less loaded
	}, DefaultSelectionConfig())
	if out[0].Response.Broker.LogicalAddress != "newcomer" {
		t.Fatalf("newcomer not preferred: scores %v", scoresOf(out))
	}
}

func TestShortlistLatencyPenaltyDisabled(t *testing.T) {
	cfg := DefaultSelectionConfig()
	cfg.LatencyPenaltyPerMs = 0
	out := Shortlist([]Candidate{
		candidate("far-idle", 500, idleUsage()),
		candidate("near-busy", 1, metrics.Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 500 * mib, Links: 50, CPULoad: 1}),
	}, cfg)
	if out[0].Response.Broker.LogicalAddress != "far-idle" {
		t.Fatal("with zero latency penalty, usage alone must rank")
	}
}

func TestShortlistDoesNotMutateInput(t *testing.T) {
	in := []Candidate{
		candidate("a", 100, idleUsage()),
		candidate("b", 1, idleUsage()),
	}
	_ = Shortlist(in, DefaultSelectionConfig())
	if in[0].Response.Broker.LogicalAddress != "a" || in[0].Score != 0 {
		t.Fatal("input slice mutated")
	}
}

func TestShortlistZeroTargetSizeDefaults(t *testing.T) {
	var cands []Candidate
	for i := 0; i < 15; i++ {
		cands = append(cands, candidate(fmt.Sprintf("b%d", i), i, idleUsage()))
	}
	out := Shortlist(cands, SelectionConfig{Weights: metrics.DefaultWeights()})
	if len(out) != DefaultTargetSetSize {
		t.Fatalf("len = %d, want default %d", len(out), DefaultTargetSetSize)
	}
}

func TestPickByPingLowestRTT(t *testing.T) {
	targets := []Candidate{
		candidate("a", 10, idleUsage()),
		candidate("b", 10, idleUsage()),
		candidate("c", 10, idleUsage()),
	}
	targets[0].PingRTT, targets[0].PingCount = 40*time.Millisecond, 3
	targets[1].PingRTT, targets[1].PingCount = 12*time.Millisecond, 3
	targets[2].PingRTT, targets[2].PingCount = 90*time.Millisecond, 2
	idx, ok := PickByPing(targets)
	if !ok || idx != 1 {
		t.Fatalf("PickByPing = (%d, %v), want (1, true)", idx, ok)
	}
}

func TestPickByPingSkipsSilentBrokers(t *testing.T) {
	// "the response's arrival or the lack thereof provides a good indicator"
	targets := []Candidate{
		candidate("silent", 1, idleUsage()),
		candidate("heard", 50, idleUsage()),
	}
	targets[1].PingRTT, targets[1].PingCount = 70*time.Millisecond, 1
	idx, ok := PickByPing(targets)
	if !ok || idx != 1 {
		t.Fatalf("PickByPing = (%d, %v), want (1, true)", idx, ok)
	}
}

func TestPickByPingAllSilentFallsBackToScore(t *testing.T) {
	targets := []Candidate{
		candidate("best-score", 1, idleUsage()),
		candidate("second", 9, idleUsage()),
	}
	idx, ok := PickByPing(targets)
	if ok {
		t.Fatal("ok = true with no pongs")
	}
	if idx != 0 {
		t.Fatalf("idx = %d, want 0 (shortlist head)", idx)
	}
}

func TestPickByPingEmpty(t *testing.T) {
	idx, ok := PickByPing(nil)
	if idx != -1 || ok {
		t.Fatalf("PickByPing(nil) = (%d, %v)", idx, ok)
	}
}

func TestEstimateLatency(t *testing.T) {
	base := time.Date(2005, 7, 1, 12, 0, 0, 0, time.UTC)
	if got := EstimateLatency(base, base.Add(35*time.Millisecond)); got != 35*time.Millisecond {
		t.Fatalf("EstimateLatency = %v", got)
	}
	// Clock residual pushing the estimate negative is clamped at zero.
	if got := EstimateLatency(base, base.Add(-5*time.Millisecond)); got != 0 {
		t.Fatalf("negative latency not clamped: %v", got)
	}
}

func TestShortlistStability(t *testing.T) {
	// Equal-scored candidates keep their arrival order (stable sort), which
	// keeps selection deterministic for reproducible experiments.
	var cands []Candidate
	for i := 0; i < 6; i++ {
		cands = append(cands, candidate(fmt.Sprintf("tied%d", i), 10, idleUsage()))
	}
	out := Shortlist(cands, DefaultSelectionConfig())
	for i := range out {
		if out[i].Response.Broker.LogicalAddress != fmt.Sprintf("tied%d", i) {
			t.Fatalf("stability violated at %d: %s", i, out[i].Response.Broker.LogicalAddress)
		}
	}
}

func TestShortlistRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(30) + 1
		cands := make([]Candidate, n)
		for i := range cands {
			cands[i] = candidate(fmt.Sprintf("b%d", i), rng.Intn(400), metrics.Usage{
				TotalMemBytes: uint64(rng.Intn(2048)+1) * mib,
				UsedMemBytes:  uint64(rng.Intn(512)) * mib,
				Links:         rng.Intn(50),
				CPULoad:       rng.Float64(),
			})
		}
		size := rng.Intn(15) + 1
		cfg := DefaultSelectionConfig()
		cfg.TargetSetSize = size
		out := Shortlist(cands, cfg)
		if want := min(size, n); len(out) != want {
			t.Fatalf("len = %d, want %d", len(out), want)
		}
		for i := 1; i < len(out); i++ {
			if out[i].Score > out[i-1].Score {
				t.Fatalf("not sorted at %d", i)
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BenchmarkShortlist is the selection rung at the benchmark fleet's size and
// at a crowd's: score, sort and cut the responses to the target set.
func BenchmarkShortlist(b *testing.B) {
	for _, n := range []int{6, 100} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			cands := make([]Candidate, n)
			for i := range cands {
				cands[i] = candidate(fmt.Sprintf("broker-%d", i), rng.Intn(200), metrics.Usage{
					TotalMemBytes: 512 * mib, UsedMemBytes: uint64(rng.Intn(512)) * mib,
					Links: rng.Intn(8), CPULoad: rng.Float64(),
				})
			}
			cfg := DefaultSelectionConfig()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(Shortlist(cands, cfg)) == 0 {
					b.Fatal("empty target set")
				}
			}
		})
	}
}
