package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing, concurrency-safe event counter.
// Handles are obtained from a Registry and retained; Add is one atomic add.
type Counter struct{ n atomic.Uint64 }

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is a concurrency-safe instantaneous value (float64 bits in an
// atomic word).
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge value by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// kind discriminates metric families.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// child is one labelled series of a family. Exactly one of the value fields
// is populated, matching the family kind.
type child struct {
	labels    []Label
	counter   *Counter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
}

// family is one metric name with its help text, kind and children.
type family struct {
	name    string
	help    string
	kind    kind
	bounds  []float64 // histogram families only
	mu      sync.Mutex
	byKey   map[string]*child
	ordered []*child // insertion order; exposition sorts by label key
}

// Registry is a concurrency-safe collection of metric families. The zero
// value is not usable; construct with NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// LabelKey serialises a label set, in the order given, into a string that is
// both its identity (a map key) and its sort key. It is the only such
// serialisation: the registry, the collector's series store and every
// exposition that orders series (a node's /metrics, the federated /metrics,
// /query) go through it, so one label set cannot sort two ways. The
// separators are bytes no valid UTF-8 string contains.
func LabelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteString(l.Key)
		sb.WriteByte('\xff')
		sb.WriteString(l.Value)
		sb.WriteByte('\xfe')
	}
	return sb.String()
}

// sortLabels returns a copy of labels sorted by key (exposition and identity
// are order-independent).
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// familyFor returns the named family, creating it on first use, and panics
// on a kind mismatch — re-registering a name with a different type is a
// programming error that would silently corrupt the exposition otherwise.
func (r *Registry) familyFor(name, help string, k kind, bounds []float64) *family {
	mustValidName("metric", name)
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{name: name, help: help, kind: k, bounds: bounds, byKey: make(map[string]*child)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q already registered as %s, requested %s", name, f.kind, k))
	}
	return f
}

// childFor returns the series for the label set, creating it with mk on
// first use.
func (f *family) childFor(labels []Label, mk func(*child)) *child {
	labels = sortLabels(labels)
	for _, l := range labels {
		mustValidName("label", l.Key)
	}
	key := LabelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.byKey[key]
	if c == nil {
		c = &child{labels: labels}
		mk(c)
		f.byKey[key] = c
		f.ordered = append(f.ordered, c)
	}
	return c
}

// Counter returns the counter series for name + labels, registering the
// family on first use. Calling again with the same name and labels returns
// the same handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.familyFor(name, help, kindCounter, nil)
	c := f.childFor(labels, func(c *child) { c.counter = &Counter{} })
	if c.counter == nil {
		panic(fmt.Sprintf("obs: counter %q series already registered as a function", name))
	}
	return c.counter
}

// CounterFunc registers a counter series whose value is read from fn at
// exposition time — for monotonic totals a subsystem already maintains
// (e.g. dedup cache hit counts).
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	f := r.familyFor(name, help, kindCounter, nil)
	f.childFor(labels, func(c *child) { c.counterFn = fn })
}

// Gauge returns the gauge series for name + labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.familyFor(name, help, kindGauge, nil)
	c := f.childFor(labels, func(c *child) { c.gauge = &Gauge{} })
	if c.gauge == nil {
		panic(fmt.Sprintf("obs: gauge %q series already registered as a function", name))
	}
	return c.gauge
}

// GaugeFunc registers a gauge series whose value is read from fn at
// exposition time (e.g. queue depths, connection counts, clock offsets).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.familyFor(name, help, kindGauge, nil)
	f.childFor(labels, func(c *child) { c.gaugeFn = fn })
}

// Histogram returns the histogram series for name + labels. buckets are the
// ascending upper bounds (the +Inf bucket is implicit); nil uses DefBuckets.
// All series of one family share the bucket layout of the first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.familyFor(name, help, kindHistogram, buckets)
	c := f.childFor(labels, func(c *child) { c.hist = newHistogram(f.bounds) })
	return c.hist
}

// snapshotFamilies returns the families sorted by name, for exposition.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// snapshotChildren returns a family's series sorted by label key.
func (f *family) snapshotChildren() []*child {
	f.mu.Lock()
	out := append([]*child(nil), f.ordered...)
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		return LabelKey(out[i].labels) < LabelKey(out[j].labels)
	})
	return out
}
