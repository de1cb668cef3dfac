package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// DefBuckets are the default histogram bounds, in seconds: they bracket the
// paper's timescales from sub-millisecond LAN pings up to the multi-second
// response-collection window.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with atomic buckets. Observe is
// allocation-free: a linear scan over the (small, immutable) bound slice,
// one atomic bucket increment, one atomic count increment and a CAS loop for
// the running sum.
//
// Bucket semantics match Prometheus: bucket i counts observations
// v <= bounds[i]; the final bucket is the implicit +Inf catch-all.
// Exposition renders buckets cumulatively.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; immutable after creation
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// newHistogram builds a histogram over the given bounds. Bounds must be
// sorted ascending; this is checked once here, not on the record path.
func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram buckets must be strictly ascending")
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds (the unit all latency
// families use).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot returns the bucket bounds and per-bucket (non-cumulative) counts;
// the final count is the +Inf bucket. Counts are loaded individually, so a
// snapshot taken during concurrent observes may be mid-update across buckets
// — fine for exposition, which Prometheus defines as best-effort.
func (h *Histogram) Snapshot() (bounds []float64, counts []uint64) {
	counts = make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return h.bounds, counts
}
