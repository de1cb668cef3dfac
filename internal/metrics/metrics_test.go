package metrics

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"narada/internal/wire"
)

const mib = 1024 * 1024

func TestFreeMem(t *testing.T) {
	u := Usage{TotalMemBytes: 100, UsedMemBytes: 30}
	if u.FreeMemBytes() != 70 {
		t.Fatalf("FreeMemBytes = %d", u.FreeMemBytes())
	}
	over := Usage{TotalMemBytes: 10, UsedMemBytes: 20}
	if over.FreeMemBytes() != 0 {
		t.Fatalf("over-used FreeMemBytes = %d, want 0", over.FreeMemBytes())
	}
}

func TestUsageCodecRoundTrip(t *testing.T) {
	f := func(total, used uint64, links int32, load float64) bool {
		u := Usage{TotalMemBytes: total, UsedMemBytes: used, Links: int(links), CPULoad: load}
		w := wire.NewWriter(0)
		u.Encode(w)
		r := wire.NewReader(w.Bytes())
		got := DecodeUsage(r)
		if r.Finish() != nil {
			return false
		}
		return got == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScoreIdleBeatsLoaded(t *testing.T) {
	w := DefaultWeights()
	idle := Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 32 * mib, Links: 0, CPULoad: 0.02}
	loaded := Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 480 * mib, Links: 40, CPULoad: 0.9}
	if w.Score(idle) <= w.Score(loaded) {
		t.Fatalf("idle (%.2f) did not beat loaded (%.2f)", w.Score(idle), w.Score(loaded))
	}
}

func TestScoreMonotonicInLinks(t *testing.T) {
	// Adding links must never improve the score (the paper: lower the better).
	w := DefaultWeights()
	f := func(total uint64, links uint8) bool {
		base := Usage{TotalMemBytes: total, Links: int(links)}
		more := base
		more.Links++
		return w.Score(more) <= w.Score(base)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScoreMonotonicInFreeMemory(t *testing.T) {
	w := DefaultWeights()
	f := func(used uint16) bool {
		total := uint64(64 * mib)
		u := uint64(used) % total
		less := Usage{TotalMemBytes: total, UsedMemBytes: u}
		more := Usage{TotalMemBytes: total, UsedMemBytes: u / 2}
		return w.Score(more) >= w.Score(less)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScoreBiggerMemoryPreferred(t *testing.T) {
	w := DefaultWeights()
	small := Usage{TotalMemBytes: 256 * mib}
	big := Usage{TotalMemBytes: 2048 * mib}
	if w.Score(big) <= w.Score(small) {
		t.Fatal("bigger total memory not preferred")
	}
}

func TestScoreZeroMemorySafe(t *testing.T) {
	w := DefaultWeights()
	got := w.Score(Usage{Links: 3, CPULoad: 0.5})
	want := -3*w.NumLinks - 0.5*w.CPULoad
	if got != want {
		t.Fatalf("Score = %v, want %v (no NaN/Inf from zero memory)", got, want)
	}
}

func TestRuntimeSampler(t *testing.T) {
	s := NewRuntimeSampler()
	s.SetLinks(7)
	s.SetCPULoad(0.25)
	u := s.Sample()
	if u.Links != 7 || u.CPULoad != 0.25 {
		t.Fatalf("sampler did not carry setters: %+v", u)
	}
	if u.TotalMemBytes == 0 {
		t.Fatal("runtime sampler reported zero total memory")
	}
	if u.UsedMemBytes > u.TotalMemBytes {
		t.Fatalf("used %d > total %d", u.UsedMemBytes, u.TotalMemBytes)
	}
}

// TestRuntimeSamplerAgreesWithMemStats: the runtime/metrics figures Sample
// reads are the MemStats ones (Sys, HeapInuse + StackInuse) it used to read
// with the world stopped. The two reads are not simultaneous, hence bands.
func TestRuntimeSamplerAgreesWithMemStats(t *testing.T) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	u := NewRuntimeSampler().Sample()
	within := func(name string, got, want uint64, frac float64) {
		t.Helper()
		if d := math.Abs(float64(got) - float64(want)); d > frac*float64(want) {
			t.Errorf("%s = %d, MemStats says %d (off by more than %.0f%%)", name, got, want, frac*100)
		}
	}
	within("TotalMemBytes", u.TotalMemBytes, m.Sys, 0.10)
	within("UsedMemBytes", u.UsedMemBytes, m.HeapInuse+m.StackInuse, 0.25)
	if u.UsedMemBytes > u.TotalMemBytes {
		t.Errorf("used %d > total %d", u.UsedMemBytes, u.TotalMemBytes)
	}
}

// TestRuntimeSamplerDerivesCPULoad: with nobody calling SetCPULoad, the load
// follows the process — a window spent spinning reads high, an idle window
// reads near zero — and SetCPULoad then overrides it for good.
func TestRuntimeSamplerDerivesCPULoad(t *testing.T) {
	if _, ok := processCPUTime(); !ok {
		t.Skip("no process CPU time on this platform")
	}
	s := NewRuntimeSampler()
	if s.cpuWindow != cpuLoadInterval {
		t.Fatalf("window = %v, want %v", s.cpuWindow, cpuLoadInterval)
	}
	if l := s.Sample().CPULoad; l != 0 {
		t.Fatalf("load before the first window closed = %v, want 0", l)
	}
	// A short window, one processor, one spinner: the load reads the same as
	// with every processor spinning for a second, and the timing-sensitive
	// tests of the packages running beside this one keep the host.
	s.cpuWindow = 50 * time.Millisecond
	window := s.cpuWindow + 10*time.Millisecond
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	// Those binaries share the host, so a window can still be starved; one
	// window in which the spinner got its processor is the evidence.
	var busy float64
	for try := 0; try < 5 && busy <= 0.3; try++ {
		time.Sleep(window)
		busy = s.Sample().CPULoad
	}
	close(stop)
	<-done
	if busy <= 0.3 || busy > 1 {
		t.Errorf("load with the one processor spinning = %.2f, want in (0.3, 1]", busy)
	}

	time.Sleep(window)
	if idle := s.Sample().CPULoad; idle >= 0.1 {
		t.Errorf("load after an idle window = %.2f, want < 0.1", idle)
	}

	s.SetCPULoad(0.25)
	time.Sleep(window)
	if l := s.Sample().CPULoad; l != 0.25 {
		t.Errorf("load after SetCPULoad(0.25) and a window = %v, want 0.25", l)
	}
}

func TestRuntimeSamplerDoesNotAllocate(t *testing.T) {
	s := NewRuntimeSampler()
	if allocs := testing.AllocsPerRun(100, func() { s.Sample() }); allocs != 0 {
		t.Fatalf("Sample allocates %.0f times per call, want 0", allocs)
	}
}

func TestStaticSampler(t *testing.T) {
	s := NewStaticSampler(Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 100 * mib})
	s.SetLinks(3)
	s.SetCPULoad(0.1)
	s.SetUsedMem(200 * mib)
	u := s.Sample()
	if u.Links != 3 || u.CPULoad != 0.1 || u.UsedMemBytes != 200*mib {
		t.Fatalf("static sampler state wrong: %+v", u)
	}
	// Samples are snapshots, not references.
	s.SetLinks(9)
	if u.Links != 3 {
		t.Fatal("previous sample mutated by setter")
	}
}

// BenchmarkRuntimeSample is what every discovery response pays for its usage
// figures: 0 allocs/op, and no stop-the-world.
func BenchmarkRuntimeSample(b *testing.B) {
	s := NewRuntimeSampler()
	b.ReportAllocs()
	var u Usage
	for i := 0; i < b.N; i++ {
		u = s.Sample()
	}
	if u.TotalMemBytes == 0 {
		b.Fatal("zero total memory")
	}
}

func BenchmarkScore(b *testing.B) {
	w := DefaultWeights()
	u := Usage{TotalMemBytes: 512 * mib, UsedMemBytes: 128 * mib, Links: 12, CPULoad: 0.3}
	for i := 0; i < b.N; i++ {
		_ = w.Score(u)
	}
}
