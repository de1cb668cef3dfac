package broker

import (
	"sync"
	"sync/atomic"

	"narada/internal/event"
	"narada/internal/obs"
	"narada/internal/transport"
)

// maxPooledFrame caps the buffer capacity a recycled frame retains, so one
// jumbo payload does not pin megabytes inside the pool forever.
const maxPooledFrame = 1 << 16

// sharedFrame is one encoded wire frame shared by every egress queue of a
// fan-out. It is filled once — by a connection reader receiving straight into
// it, or by encode for events the broker itself authors or rewrites — and the
// router then hands that same frame to every delivery target, one reference
// each. Each queue releases its reference after the write (or on
// drop/teardown); the last release returns the buffer to the pool.
//
// The lifetime rules every holder must follow:
//
//  1. A frame handed to you carries exactly one reference for you.
//  2. Release exactly once — after the write that takes its last byte
//     returns, or immediately when you drop the frame. The transports do not
//     retain the payload slice past a write (simnet copies; TCP writes
//     synchronously), so releasing then is safe.
//  3. Never touch f.buf after your release: the buffer may already be
//     carrying a different event.
//  4. The reader owns a frame until it hands it to the router, and the
//     router keeps that reference until its fan-out returns. An event.View
//     parsed from the frame (its Topic above all) aliases f.buf, so it is
//     valid exactly that long; whatever must outlive the frame clones it.
//  5. Frames are immutable once shared. The single exception is the router
//     spending a hop in place (buf[TTLOff]--) on a frame no local subscriber
//     will read, before any link queue sees it.
type sharedFrame struct {
	buf  []byte
	refs atomic.Int32
	pool *framePool

	// Delivery accounting, stamped by the publish fan-out on publish frames only
	// (control/replay frames leave them zero). None of these fields affect
	// the reference count: sampling observes a frame's life, never extends
	// or shortens it.
	flow       *obs.FlowEntry // topic's flow counters, for flush/drop tallies
	born       int64          // event-origin NTP UnixNano; 0 = latency not tracked
	traceID    string         // non-empty when the message is sampled for tracing
	enqueuedNs int64          // wall clock at egress enqueue (queue-wait); sampled only
}

// stampFrom copies src's delivery accounting onto f.
func (f *sharedFrame) stampFrom(src *sharedFrame) {
	f.flow, f.born = src.flow, src.born
	f.traceID, f.enqueuedNs = src.traceID, src.enqueuedNs
}

// release drops one reference; the last reference returns the frame to the
// pool. Releasing more references than were taken corrupts the pool (a
// recycled buffer would be shared with a live fan-out), so over-release
// panics loudly instead.
func (f *sharedFrame) release() {
	switch n := f.refs.Add(-1); {
	case n == 0:
		f.pool.put(f)
	case n < 0:
		panic("broker: sharedFrame over-released")
	}
}

// bytes returns the encoded frame. Valid only while the caller holds a
// reference.
func (f *sharedFrame) bytes() []byte { return f.buf }

// recv fills the frame with the next message from conn, received into the
// frame's recycled buffer where the transport can.
func (f *sharedFrame) recv(conn transport.Conn) error {
	buf, err := conn.RecvInto(f.buf)
	if err == nil {
		f.buf = buf
	}
	return err
}

// framePool recycles sharedFrames (and their encode buffers) across
// publishes. The live gauge counts frames currently checked out, which the
// stress tests assert back to zero to prove no reference leaks.
type framePool struct {
	pool sync.Pool
	live atomic.Int64

	hits   *obs.Counter // checkout served by a recycled frame
	misses *obs.Counter // checkout that had to allocate a frame
}

func newFramePool(hits, misses *obs.Counter) *framePool {
	return &framePool{hits: hits, misses: misses}
}

// get checks a frame out of the pool carrying one reference, the caller's.
// Its buffer is whatever its last use left: contents meaningless, capacity
// there to be reused.
func (p *framePool) get() *sharedFrame {
	f, _ := p.pool.Get().(*sharedFrame)
	if f == nil {
		f = &sharedFrame{pool: p}
		p.misses.Inc()
	} else {
		p.hits.Inc()
	}
	f.refs.Store(1)
	p.live.Add(1)
	return f
}

// encode serialises the event into a pooled frame carrying refs references.
// refs must equal the number of release calls that will follow.
func (p *framePool) encode(e *event.Event, refs int32) *sharedFrame {
	f := p.get()
	f.buf = event.Append(f.buf, e)
	f.refs.Store(refs)
	return f
}

// copyOf returns a pooled copy of src's bytes and delivery stamps carrying
// refs references.
func (p *framePool) copyOf(src *sharedFrame, refs int32) *sharedFrame {
	f := p.get()
	f.buf = append(f.buf[:0], src.buf...)
	f.stampFrom(src)
	f.refs.Store(refs)
	return f
}

func (p *framePool) put(f *sharedFrame) {
	p.live.Add(-1)
	if cap(f.buf) > maxPooledFrame {
		f.buf = nil
	}
	// Clear the accounting stamps so a recycled frame never reports the
	// previous event's flow or trace.
	f.flow, f.traceID = nil, ""
	f.born, f.enqueuedNs = 0, 0
	p.pool.Put(f)
}

// Live returns the number of frames currently checked out (test/telemetry).
func (p *framePool) Live() int64 { return p.live.Load() }
