// Package metrics implements the usage-metric side of broker selection. A
// BrokerDiscoveryResponse "contains the total memory available to the broker,
// the total amount of used memory, the number of links the broker is
// connected to and possibly the CPU load at the broker"; the requesting node
// weighs these with configurable factors to shortlist its target set, which
// is what makes newly added (idle) brokers preferentially utilised.
package metrics

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"time"

	"narada/internal/wire"
)

// Usage is a snapshot of a broker's load, carried in every discovery
// response.
type Usage struct {
	TotalMemBytes uint64  // total memory available to the broker process
	UsedMemBytes  uint64  // memory currently in use
	Links         int     // active concurrent connections (links + clients)
	CPULoad       float64 // [0, 1] utilisation
}

// FreeMemBytes returns the memory headroom.
func (u Usage) FreeMemBytes() uint64 {
	if u.UsedMemBytes > u.TotalMemBytes {
		return 0
	}
	return u.TotalMemBytes - u.UsedMemBytes
}

// Encode appends the usage fields with the wire codec.
func (u Usage) Encode(w *wire.Writer) {
	w.Uvarint(u.TotalMemBytes)
	w.Uvarint(u.UsedMemBytes)
	w.Varint(int64(u.Links))
	w.Float64(u.CPULoad)
}

// DecodeUsage reads usage fields written by Encode.
func DecodeUsage(r *wire.Reader) Usage {
	return Usage{
		TotalMemBytes: r.Uvarint(),
		UsedMemBytes:  r.Uvarint(),
		Links:         int(r.Varint()),
		CPULoad:       r.Float64(),
	}
}

// Weights holds the configurable weighting factors from the paper's §9
// pseudocode. Higher weight is better for the broker.
//
//	weight += (freeMem / totalMem) * FreeToTotalMemory   // higher the better
//	weight += (totalMem / 1 MiB)   * TotalMemory         // higher the better
//	weight -= numLinks             * NumLinks            // lower the better
//	weight -= cpuLoad              * CPULoad             // lower the better
type Weights struct {
	FreeToTotalMemory float64
	TotalMemory       float64
	NumLinks          float64
	CPULoad           float64
}

// DefaultWeights mirrors the paper's emphasis: prefer idle, well-provisioned
// brokers, penalise heavily linked or loaded ones.
func DefaultWeights() Weights {
	return Weights{
		FreeToTotalMemory: 10,
		TotalMemory:       0.001, // per MiB: 1 GiB contributes ~1.0
		NumLinks:          0.5,
		CPULoad:           5,
	}
}

// Score computes the selection weight of a broker with the given usage.
func (w Weights) Score(u Usage) float64 {
	weight := 0.0
	if u.TotalMemBytes > 0 {
		weight += float64(u.FreeMemBytes()) / float64(u.TotalMemBytes) * w.FreeToTotalMemory
		weight += float64(u.TotalMemBytes) / (1024 * 1024) * w.TotalMemory
	}
	weight -= float64(u.Links) * w.NumLinks
	weight -= u.CPULoad * w.CPULoad
	return weight
}

// Sampler produces Usage snapshots for a broker.
type Sampler interface {
	Sample() Usage
}

// The runtime/metrics samples behind RuntimeSampler's memory figures, in the
// order Sample reads them. Together they are runtime.MemStats' Sys and
// HeapInuse + StackInuse.
const (
	memTotal = iota
	memHeapObjects
	memHeapUnused
	memHeapStacks
	memSamples
)

var memSampleNames = [memSamples]string{
	memTotal:       "/memory/classes/total:bytes",
	memHeapObjects: "/memory/classes/heap/objects:bytes",
	memHeapUnused:  "/memory/classes/heap/unused:bytes",
	memHeapStacks:  "/memory/classes/heap/stacks:bytes",
}

// cpuLoadInterval is the shortest window CPULoad is computed over. A broker
// samples per discovery request; a window much shorter than this would mostly
// measure the request that asked.
const cpuLoadInterval = time.Second

// RuntimeSampler reports the process's real memory statistics and CPU load;
// Links is supplied by the broker via SetLinks. Used by live deployments;
// create one with NewRuntimeSampler.
//
// A broker samples on every discovery response, so the memory figures come
// from runtime/metrics, which reads them without stopping the world;
// runtime.ReadMemStats would halt every goroutine of the broker once per
// request.
//
// CPULoad is the process's CPU time over the last window of at least
// cpuLoadInterval, as a share of what GOMAXPROCS processors could have
// spent in it — until SetCPULoad is called, after which it is whatever the
// caller last set.
type RuntimeSampler struct {
	mu    sync.Mutex
	links int
	mem   [memSamples]rtmetrics.Sample // reused by every Sample, under mu

	cpuLoad   float64
	cpuSet    bool          // SetCPULoad took over: cpuLoad is the caller's
	cpuWindow time.Duration // cpuLoadInterval; only the test shortens it
	cpuAt     time.Time     // start of the current window
	cpuUsed   time.Duration // process CPU time at cpuAt
}

// NewRuntimeSampler returns a Sampler backed by the Go runtime's memory
// accounting and the operating system's account of the process's CPU time.
func NewRuntimeSampler() *RuntimeSampler {
	s := &RuntimeSampler{cpuWindow: cpuLoadInterval, cpuAt: time.Now()}
	s.cpuUsed, _ = processCPUTime()
	for i, name := range memSampleNames {
		s.mem[i].Name = name
	}
	return s
}

// SetLinks records the broker's current connection count.
func (s *RuntimeSampler) SetLinks(n int) {
	s.mu.Lock()
	s.links = n
	s.mu.Unlock()
}

// SetCPULoad overrides the derived CPU load with a utilisation in [0, 1]
// the caller measured (or, in a test, wants reported).
func (s *RuntimeSampler) SetCPULoad(l float64) {
	s.mu.Lock()
	s.cpuLoad, s.cpuSet = l, true
	s.mu.Unlock()
}

// Sample implements Sampler.
func (s *RuntimeSampler) Sample() Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now := time.Now(); !s.cpuSet && now.Sub(s.cpuAt) >= s.cpuWindow {
		if used, ok := processCPUTime(); ok {
			available := float64(now.Sub(s.cpuAt)) * float64(runtime.GOMAXPROCS(0))
			s.cpuLoad = min(max(float64(used-s.cpuUsed)/available, 0), 1)
			s.cpuAt, s.cpuUsed = now, used
		}
	}
	rtmetrics.Read(s.mem[:])
	return Usage{
		TotalMemBytes: s.mem[memTotal].Value.Uint64(),
		UsedMemBytes: s.mem[memHeapObjects].Value.Uint64() +
			s.mem[memHeapUnused].Value.Uint64() +
			s.mem[memHeapStacks].Value.Uint64(),
		Links:   s.links,
		CPULoad: s.cpuLoad,
	}
}

// StaticSampler reports a fixed memory/CPU profile with a live link count;
// the simulator gives each broker one so experiments control load precisely.
type StaticSampler struct {
	mu    sync.Mutex
	usage Usage
}

// NewStaticSampler returns a Sampler with a fixed profile.
func NewStaticSampler(u Usage) *StaticSampler { return &StaticSampler{usage: u} }

// SetLinks updates the link count reported by subsequent samples.
func (s *StaticSampler) SetLinks(n int) {
	s.mu.Lock()
	s.usage.Links = n
	s.mu.Unlock()
}

// SetCPULoad updates the CPU load reported by subsequent samples.
func (s *StaticSampler) SetCPULoad(l float64) {
	s.mu.Lock()
	s.usage.CPULoad = l
	s.mu.Unlock()
}

// SetUsedMem updates the used-memory figure reported by subsequent samples.
func (s *StaticSampler) SetUsedMem(b uint64) {
	s.mu.Lock()
	s.usage.UsedMemBytes = b
	s.mu.Unlock()
}

// Sample implements Sampler.
func (s *StaticSampler) Sample() Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usage
}
