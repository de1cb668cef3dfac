package obs

// Ring is a fixed-capacity FIFO that evicts its oldest element when a push
// finds it full — the one bounded buffer behind the journal, the tracer's
// recent-trace list and the collector's trace and per-node event stores.
// Push and eviction are O(1). It is not synchronised; owners hold their own
// lock.
type Ring[T any] struct {
	buf   []T
	start int // index of the oldest element
	n     int
}

// NewRing returns a ring holding at most capacity elements (minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push appends v. When the ring is full the oldest element makes room and is
// returned with evicted true.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	if r.n == len(r.buf) {
		old = r.buf[r.start]
		r.buf[r.start] = v
		r.start = (r.start + 1) % len(r.buf)
		return old, true
	}
	r.buf[(r.start+r.n)%len(r.buf)] = v
	r.n++
	return old, false
}

// Len reports the number of held elements.
func (r *Ring[T]) Len() int { return r.n }

// Each calls fn on every held element, oldest first.
func (r *Ring[T]) Each(fn func(T)) {
	for i := 0; i < r.n; i++ {
		fn(r.buf[(r.start+i)%len(r.buf)])
	}
}

// Drain returns the held elements oldest first and empties the ring; nil
// when it is empty.
func (r *Ring[T]) Drain() []T {
	if r.n == 0 {
		return nil
	}
	out := make([]T, 0, r.n)
	r.Each(func(v T) { out = append(out, v) })
	clear(r.buf) // drop references so drained elements can be collected
	r.start, r.n = 0, 0
	return out
}
