package obs

// Ring is a bounded FIFO that evicts its oldest element when a push finds it
// full — the one bounded buffer behind the journal, the tracer's recent-trace
// list and span log, and the collector's trace and per-node event stores. It
// grows to its capacity as elements arrive, so an idle ring costs nothing.
// Push and eviction are O(1). It is not synchronised; owners hold their own
// lock.
type Ring[T any] struct {
	buf   []T
	max   int
	start int // index of the oldest element once the ring has wrapped
}

// NewRing returns a ring holding at most capacity elements (minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{max: max(capacity, 1)}
}

// Push appends v. When the ring is full the oldest element makes room and is
// returned with evicted true.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
		return old, false
	}
	old = r.buf[r.start]
	r.buf[r.start] = v
	r.start = (r.start + 1) % len(r.buf)
	return old, true
}

// Len reports the number of held elements.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Each calls fn on every held element, oldest first.
func (r *Ring[T]) Each(fn func(T)) {
	for i := range r.buf {
		fn(r.buf[(r.start+i)%len(r.buf)])
	}
}
