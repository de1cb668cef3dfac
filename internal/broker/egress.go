package broker

import (
	"strconv"
	"sync/atomic"
	"time"

	"narada/internal/obs"
	"narada/internal/transport"
)

// egressQueueSize bounds the frames queued in front of one connection. At
// 512 frames a slow peer can lag ~half a second of full-rate traffic before
// the overflow policy kicks in, while a dead peer costs at most one queue of
// memory instead of a stalled routing loop.
const egressQueueSize = 512

// maxCoalesce bounds how many queued frames leave in one vectored write, and
// so what a connection reader writes itself. Large enough to amortise the
// per-write cost (syscall on real sockets) under load, small enough that one
// flush cannot monopolise the connection against control traffic queued
// behind it.
const maxCoalesce = 64

// maxEgressFrame is the largest encoded frame an egress queue accepts; bigger
// frames are dropped (and counted with reason frame_too_large) rather than
// handed to the transport, where a multi-megabyte write would stall the
// writer against every frame coalesced behind it.
const maxEgressFrame = 1 << 20

// egressTel bundles the instruments every egress queue records into. One
// instance is shared by all of a broker's queues; bare tests construct their
// own. The drop counters must be non-nil; everything else is optional (nil
// histograms/flow table/tracer are skipped or no-ops).
type egressTel struct {
	dropQueueFull *obs.Counter // bounded queue overflowed (drop-oldest)
	dropConnDown  *obs.Counter // writer already gone when the frame arrived
	dropTooLarge  *obs.Counter // frame exceeded maxEgressFrame

	perFlush *obs.Histogram   // frames per writer flush
	latency  *obs.Histogram   // narada_delivery_latency_seconds (born→flush)
	tracer   *obs.Tracer      // msg-flush / msg-drop spans for sampled frames
	now      func() time.Time // NTP-aligned clock for span/latency stamps
}

// clock returns the telemetry clock (wall clock when unset).
func (t *egressTel) clock() time.Time {
	if t.now != nil {
		return t.now()
	}
	return time.Now()
}

// inlineMax is the frame size from which a frame is never written by a
// reader: a frame this large is bulk, its write takes long enough to be worth
// a writer of its own, and a reader that made it would stall its own input.
// The bound is on the frame, an observable input property; it puts 16 KiB
// bulk payloads on the writer goroutine and small publishes on the reader.
const inlineMax = 16 << 10

// Write token states. Whoever holds the token is the connection's one writer.
const (
	tokenFree   int32 = iota
	tokenHeld         // a reader's inline flush or the writer goroutine writes
	tokenHanded       // passed, with the batch in hand, to the writer goroutine
)

// egress is the bounded asynchronous outbound queue in front of every link
// and client connection. The routing loop enqueues ref-counted shared frames
// and moves on; nothing that enqueues ever waits for a peer's socket, so one
// slow or dead peer cannot head-of-line-block delivery to everyone else.
//
// Frames reach the connection one of two ways, never both at once (the
// write token), on either transport:
//
//   - A connection reader that routed a publish or a discovery flood into
//     the queue writes it itself once it has run out of buffered input
//     (flushSet): one non-blocking vectored write of up to maxCoalesce
//     frames, no goroutine woken.
//   - The writer goroutine, woken only when a reader cannot finish — the
//     connection took part of the batch, more than one batch is queued, a
//     frame is inlineMax or larger — or by every other enqueue (heartbeats,
//     interest control, replay, UDP-ingress discovery, in-process Publish).
//     It writes with blocking calls, up to maxCoalesce frames per write.
//
// Two enqueue disciplines implement the fabric's policies:
//
//   - sendData (publishes, discovery floods): never blocks; when the queue
//     is full the oldest queued frame is dropped and counted, trading
//     completeness for liveness exactly like the client-side inbox.
//   - sendControl (interest updates, heartbeats): never dropped; blocks
//     until queued, applying bounded backpressure for the small volume of
//     correctness-critical control traffic.
//
// Every frame enqueued transfers one reference to the queue; whoever writes
// it (or the teardown drain) releases it after its last byte is written. A
// frame rejected at enqueue time is released immediately, so callers never
// need to track whether the queue accepted it.
type egress struct {
	conn transport.Conn
	ch   chan *sharedFrame
	kick chan struct{} // 1 slot: wakes the writer goroutine

	token   atomic.Int32             // the write token (tokenFree, ...)
	mark    atomic.Pointer[flushSet] // the flush set that last took this queue
	closing atomic.Bool              // close asked: flush and exit
	dead    chan struct{}            // closed when the writer has exited
	down    atomic.Bool              // writer gone: reject new frames without queuing

	// The token holder's batch: frames taken off the queue and not yet
	// wholly written, their write view, their size on the wire and how many
	// of those bytes are already written.
	frames []*sharedFrame
	bufs   [][]byte
	wire   int
	sent   int
	large  bool // a frame of the batch is inlineMax or larger

	tel  *egressTel // shared instruments; never nil
	dest string     // "local" (client) or "link", stamped on spans
}

func newEgress(conn transport.Conn, tel *egressTel, dest string) *egress {
	return &egress{
		conn:   conn,
		ch:     make(chan *sharedFrame, egressQueueSize),
		kick:   make(chan struct{}, 1),
		dead:   make(chan struct{}),
		frames: make([]*sharedFrame, 0, maxCoalesce),
		bufs:   make([][]byte, 0, maxCoalesce),
		tel:    tel,
		dest:   dest,
	}
}

// drop accounts one dropped frame — counter by reason, per-topic flow tally
// via the entry handle fanOut stamped (no topic re-hashing: overflow
// eviction runs inside the publish hot loop), and an msg-drop trace event
// when the frame was sampled — then releases the caller's reference.
func (q *egress) drop(f *sharedFrame, reason int) {
	switch reason {
	case obs.DropConnDown:
		q.tel.dropConnDown.Add(1)
	case obs.DropFrameTooLarge:
		q.tel.dropTooLarge.Add(1)
	default:
		q.tel.dropQueueFull.Add(1)
	}
	f.flow.Dropped(reason)
	if f.traceID != "" && q.tel.tracer != nil {
		q.tel.tracer.Trace(f.traceID).Event("msg-drop", q.tel.clock(),
			obs.A("dest", q.dest), obs.A("reason", obs.DropReasonNames[reason]))
	}
	f.release()
}

// wake makes the writer goroutine run soon. It never blocks: a kick already
// pending covers this one.
func (q *egress) wake() {
	select {
	case q.kick <- struct{}{}:
	default:
	}
}

// unlock gives the write token back. Frames queued meanwhile by someone who
// found the token taken, and a close asked meanwhile, are the writer
// goroutine's: whoever unlocks last sees them.
func (q *egress) unlock() {
	q.token.Store(tokenFree)
	if len(q.ch) > 0 || q.closing.Load() {
		q.wake()
	}
}

// take is the writer goroutine's claim on the token: free, or handed to it.
func (q *egress) take() bool {
	return q.token.CompareAndSwap(tokenFree, tokenHeld) ||
		q.token.CompareAndSwap(tokenHanded, tokenHeld)
}

// run is the writer goroutine. It sleeps until kicked — by a reader handing
// over a batch, or by an enqueue no reader writes (see queued) — then writes
// with blocking calls what it finds, the handed batch and then the queue,
// and gives the token back. A failed write closes the connection so
// the owning recv loop tears the session down. On close it waits for the
// token, flushes and exits still holding it, so no reader writes after it;
// on exit the queue is marked down and drained, releasing every undelivered
// frame back to its pool.
func (q *egress) run() {
	defer close(q.dead)
	defer q.drainRelease()
	for range q.kick {
		stopping := q.closing.Load()
		if stopping {
			for !q.take() {
				<-q.kick // a reader's flush is finishing; its unlock wakes us
			}
		} else if !q.take() {
			continue // the holder's unlock sees what woke us
		}
		if !q.drain(true) || stopping {
			return
		}
		q.unlock()
	}
}

// flushInline is a reader's write: unless someone else is writing, what is
// queued leaves in one non-blocking write, and what that cannot finish goes
// to the writer goroutine with the token.
func (q *egress) flushInline() {
	if !q.token.CompareAndSwap(tokenFree, tokenHeld) {
		return // the holder's unlock sees what we queued
	}
	if q.drain(false) {
		q.unlock()
		return
	}
	q.token.Store(tokenHanded)
	q.wake()
}

// drain writes the batch in hand and then the queue, taking up to
// maxCoalesce frames per vectored write. The caller holds the token.
//
// With wait it blocks until the queue is empty, and reports false when the
// connection failed: the batch is then dropped and the connection closed.
// Without wait it makes at most one non-blocking write, and reports false
// when what is left — the rest of a batch, more than one batch, a frame of
// inlineMax or more, or a failure — is the writer goroutine's.
func (q *egress) drain(wait bool) bool {
	for {
		if len(q.frames) == 0 && !q.collect() {
			return true
		}
		if !wait && (q.large || len(q.ch) > 0) {
			return false
		}
		if err := q.write(wait); err != nil {
			if !wait {
				return false
			}
			// Frames the failed write already took are conservatively
			// counted with the rest: a failed flush means the peer cannot be
			// assumed to have received any of it.
			for i, f := range q.frames {
				q.drop(f, obs.DropConnDown)
				q.frames[i] = nil
			}
			q.frames = q.frames[:0]
			_ = q.conn.Close()
			return false
		}
		if q.sent < q.wire {
			return false // a full socket, without wait
		}
		q.flushed()
		if !wait {
			return true
		}
	}
}

// collect takes up to maxCoalesce queued frames as the new batch and reports
// whether there were any.
func (q *egress) collect() bool {
	q.wire, q.sent, q.large = 0, 0, false
	for len(q.frames) < maxCoalesce {
		select {
		case f := <-q.ch:
			q.frames = append(q.frames, f)
			q.wire += transport.PrefixLen + len(f.buf)
			q.large = q.large || len(f.buf) >= inlineMax
		default:
			return len(q.frames) > 0
		}
	}
	return true
}

// write writes what is left of the batch in one WriteBatch call: resumable
// and, without wait, non-blocking.
func (q *egress) write(wait bool) error {
	q.bufs = q.bufs[:0]
	for _, f := range q.frames {
		q.bufs = append(q.bufs, f.bytes())
	}
	n, err := q.conn.WriteBatch(q.bufs, q.sent, wait)
	q.sent += n
	return err
}

// flushed accounts and releases a wholly written batch.
func (q *egress) flushed() {
	if q.tel.perFlush != nil {
		q.tel.perFlush.Observe(float64(len(q.frames)))
	}
	q.observeFlushed()
	for i, f := range q.frames {
		f.release()
		q.frames[i] = nil
	}
	q.frames = q.frames[:0]
}

// observeFlushed records delivery accounting for a successfully written
// batch: per-topic delivered tallies, the end-to-end delivery latency
// histogram (event origin → flush, on the NTP-aligned clock), and an
// msg-flush span per sampled frame whose duration is the wall-clock
// queue wait from egress enqueue to this flush. Clock reads happen once per
// batch, not per frame. Control and replay frames (no flow handle, no trace)
// are skipped entirely; the latency histogram additionally needs a born
// stamp, which publishers that set no Timestamp don't provide.
func (q *egress) observeFlushed() {
	var at time.Time // batch-wide clocks, read lazily on the first data frame
	var wallNs int64
	batch := len(q.frames)
	for _, f := range q.frames {
		if f.flow == nil && f.traceID == "" {
			continue
		}
		if wallNs == 0 {
			at = q.tel.clock()
			wallNs = time.Now().UnixNano()
		}
		if f.born != 0 && q.tel.latency != nil {
			if d := at.UnixNano() - f.born; d > 0 {
				q.tel.latency.Observe(time.Duration(d).Seconds())
			}
		}
		if f.flow != nil {
			f.flow.Delivered(len(f.buf))
		}
		if f.traceID != "" && q.tel.tracer != nil {
			wait := time.Duration(wallNs - f.enqueuedNs)
			if wait <= 0 {
				wait = time.Nanosecond // clock granularity; the wait happened
			}
			q.tel.tracer.Trace(f.traceID).Span("msg-flush", at, wait,
				obs.A("dest", q.dest), obs.A("batch", strconv.Itoa(batch)))
		}
	}
}

// drainRelease marks the queue down and releases every frame still queued,
// so no reference leaks when a connection dies with frames in flight. The
// undelivered frames are accounted as conn-down drops.
func (q *egress) drainRelease() {
	q.down.Store(true)
	for {
		select {
		case f := <-q.ch:
			q.drop(f, obs.DropConnDown)
		default:
			return
		}
	}
}

// close asks the writer to flush queued frames and exit. Safe to call more
// than once and concurrently with enqueues.
func (q *egress) close() {
	q.closing.Store(true)
	q.wake()
}

// dropBatch accumulates queue-full eviction accounting across one fan-out's
// enqueues. When a publish overflows many egress queues at once — the storm
// case: every subscriber queue backed up behind the same hot topic — the
// per-eviction cost collapses to one atomic add per topic run instead of one
// per evicted frame, which matters because eviction happens inside the
// publish hot loop. Frames are still traced and released immediately; only
// the counter and flow-tally adds are deferred until settle.
type dropBatch struct {
	tel  *egressTel
	flow *obs.FlowEntry
	n    uint64
}

// evicted absorbs one queue-full eviction from queue q: the msg-drop trace
// event (sampled frames only) and the frame release happen now, the counting
// is batched.
func (d *dropBatch) evicted(q *egress, f *sharedFrame) {
	if f.flow != d.flow {
		d.settle()
		d.flow = f.flow
	}
	d.tel = q.tel
	d.n++
	if f.traceID != "" && q.tel.tracer != nil {
		q.tel.tracer.Trace(f.traceID).Event("msg-drop", q.tel.clock(),
			obs.A("dest", q.dest),
			obs.A("reason", obs.DropReasonNames[obs.DropQueueFull]))
	}
	f.release()
}

// settle flushes the accumulated evictions into the reason counter and the
// flow table. Must be called before the batch's owner releases it.
func (d *dropBatch) settle() {
	if d.n == 0 {
		return
	}
	d.tel.dropQueueFull.Add(d.n)
	d.flow.DroppedN(obs.DropQueueFull, d.n)
	d.n = 0
}

// sendData enqueues an application/dissemination frame with the drop-oldest
// overflow policy, consuming the caller's reference either way. The writer
// goroutine writes it.
func (q *egress) sendData(f *sharedFrame) { q.sendDataBatch(f, nil, nil) }

// sendDataBatch is sendData with optional batched eviction accounting and an
// optional flush set: a non-nil db absorbs queue-full evictions for a later
// settle instead of counting each one immediately; a non-nil set takes the
// write (see queued). The publish fan-out passes its per-scratch batch and
// its reader's set; everyone else passes nil.
func (q *egress) sendDataBatch(f *sharedFrame, db *dropBatch, set *flushSet) {
	if q.down.Load() {
		q.drop(f, obs.DropConnDown)
		return
	}
	if len(f.buf) > maxEgressFrame {
		q.drop(f, obs.DropFrameTooLarge)
		return
	}
	// Decided before the frame is queued: once it is, a writer may release it.
	small := len(f.buf) < inlineMax
	select {
	case q.ch <- f:
		q.queued(small, set)
		return
	default:
	}
	// Queue full: evict the oldest frame, then retry once. A concurrent
	// writer drain can make room in between, in which case nothing is lost.
	select {
	case old := <-q.ch:
		if db != nil {
			db.evicted(q, old)
		} else {
			q.drop(old, obs.DropQueueFull)
		}
	default:
	}
	select {
	case q.ch <- f:
		q.queued(small, set)
	default:
		if db != nil {
			db.evicted(q, f)
		} else {
			q.drop(f, obs.DropQueueFull)
		}
	}
}

// queued arranges the write of the frame just queued: the reader that queued
// it writes it (set takes the queue) when it passed a set, the frame is small
// (below inlineMax) and the queue holds no more than one batch; in every
// other case the writer goroutine is woken now.
func (q *egress) queued(small bool, set *flushSet) {
	if set != nil && small && len(q.ch) <= maxCoalesce {
		set.add(q)
	} else {
		q.wake()
	}
	q.reapIfDown()
}

// reapIfDown closes the enqueue/teardown race: if the writer exited between
// our down-check and our enqueue, nothing will ever drain the frame we just
// queued. The down store happens before the writer's exit drain, so seeing
// down==false here guarantees the exit drain (which runs after) will reap
// our frame; seeing true means we must drain ourselves. Draining twice is
// harmless — every frame is received, and thus released, exactly once.
func (q *egress) reapIfDown() {
	if q.down.Load() {
		q.drainRelease()
	}
}

// depth returns the number of frames currently queued (telemetry only).
func (q *egress) depth() int { return len(q.ch) }

// sendControl enqueues a control frame that must not be dropped, blocking
// until there is room. It reports false when the writer has already exited
// (connection down) — a frame a dead writer will never deliver does not
// count as sent — so callers can stop producing; the frame's reference is
// consumed either way.
func (q *egress) sendControl(f *sharedFrame) bool {
	if q.down.Load() {
		q.drop(f, obs.DropConnDown)
		return false
	}
	select {
	case q.ch <- f:
		q.wake()
		if q.down.Load() { // writer exited concurrently; reap our frame
			q.drainRelease()
			return false
		}
		return true
	case <-q.dead:
		q.drop(f, obs.DropConnDown)
		return false
	}
}

// flushSet is the set of queues one connection's reader has queued frames
// into without waking their writers. The reader flushes it before its next
// receive can wait on the connection, and before a discovery request's
// response.
type flushSet struct{ qs []*egress }

// add takes q into the set unless it is already there. A queue's mark names
// the set that took it last, so marks only ever point at sets holding the
// queue; two readers feeding one queue may each list it, which costs one
// empty flush.
func (s *flushSet) add(q *egress) {
	if q.mark.Load() != s {
		q.mark.Store(s)
		s.qs = append(s.qs, q)
	}
}

// flush writes every queue in the set and empties it. A nil set holds none.
func (s *flushSet) flush() {
	if s == nil {
		return
	}
	for i, q := range s.qs {
		q.mark.CompareAndSwap(s, nil)
		q.flushInline()
		s.qs[i] = nil
	}
	s.qs = s.qs[:0]
}
