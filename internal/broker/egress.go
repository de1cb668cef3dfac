package broker

import (
	"strconv"
	"sync"
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

// maxCoalesce bounds how many queued frames one writer wakeup drains into a
// single flush. Large enough to amortise the per-write cost (syscall on real
// sockets) under load, small enough that one flush cannot monopolise the
// connection against control traffic queued behind it.
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

// egress is the bounded asynchronous outbound queue in front of every link
// and client connection. The routing loop enqueues ref-counted shared frames
// and moves on; a dedicated writer goroutine drains the queue into the
// connection, so one slow or dead peer no longer head-of-line-blocks
// delivery to everyone else. Each wakeup the writer drains every queued
// frame (up to maxCoalesce) and writes them as one batch — a single
// vectored write on transports that support it — so under load the
// per-frame syscall cost amortises away.
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
// Every frame enqueued transfers one reference to the queue; the writer (or
// the teardown drain) releases it after the write. A frame rejected at
// enqueue time is released immediately, so callers never need to track
// whether the queue accepted it.
type egress struct {
	conn  transport.Conn
	batch transport.BatchSender // non-nil when conn supports vectored writes
	ch    chan *sharedFrame

	stopOnce sync.Once
	stop     chan struct{} // ask the writer to flush and exit
	dead     chan struct{} // closed when the writer has exited
	down     atomic.Bool   // writer gone: reject new frames without queuing

	frames []*sharedFrame // writer-local coalescing scratch
	bufs   [][]byte       // writer-local batch view of frames

	tel  *egressTel // shared instruments; never nil
	dest string     // "local" (client) or "link", stamped on spans
}

func newEgress(conn transport.Conn, tel *egressTel, dest string) *egress {
	b, _ := conn.(transport.BatchSender)
	return &egress{
		conn:   conn,
		batch:  b,
		ch:     make(chan *sharedFrame, egressQueueSize),
		stop:   make(chan struct{}),
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

// run drains the queue into the connection until the connection fails or a
// close flushes the queue. A failed send closes the connection so the
// owning recv loop tears the session down. On exit the queue is marked down
// and drained, releasing every undelivered frame back to its pool.
func (q *egress) run() {
	defer close(q.dead)
	defer q.drainRelease()
	for {
		select {
		case f := <-q.ch:
			if !q.writeCoalesced(f) {
				return
			}
		case <-q.stop:
			q.flush()
			return
		}
	}
}

// writeCoalesced drains whatever else is already queued behind first (up to
// maxCoalesce) and writes the run as one batch. It reports false when the
// connection failed.
func (q *egress) writeCoalesced(first *sharedFrame) bool {
	q.frames = append(q.frames[:0], first)
drain:
	for len(q.frames) < maxCoalesce {
		select {
		case f := <-q.ch:
			q.frames = append(q.frames, f)
		default:
			break drain
		}
	}
	if q.tel.perFlush != nil {
		q.tel.perFlush.Observe(float64(len(q.frames)))
	}
	var err error
	if q.batch != nil && len(q.frames) > 1 {
		q.bufs = q.bufs[:0]
		for _, f := range q.frames {
			q.bufs = append(q.bufs, f.bytes())
		}
		err = q.batch.SendBatch(q.bufs)
	} else {
		for _, f := range q.frames {
			if err = q.conn.Send(f.bytes()); err != nil {
				break
			}
		}
	}
	if err != nil {
		// The connection failed mid-flush. Frames already written by the
		// per-frame loop are conservatively counted with the rest: a failed
		// flush means the peer cannot be assumed to have received any of it.
		for i, f := range q.frames {
			q.drop(f, obs.DropConnDown)
			q.frames[i] = nil
		}
		_ = q.conn.Close()
		return false
	}
	q.observeFlushed()
	for i, f := range q.frames {
		f.release()
		q.frames[i] = nil
	}
	return true
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

// flush best-effort drains whatever is queued at close time; frames that
// fail to send (connection already down) are released by the exit drain.
func (q *egress) flush() {
	for {
		select {
		case f := <-q.ch:
			if !q.writeCoalesced(f) {
				return
			}
		default:
			return
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
	q.stopOnce.Do(func() { close(q.stop) })
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
// overflow policy, consuming the caller's reference either way.
func (q *egress) sendData(f *sharedFrame) { q.sendDataBatch(f, nil) }

// sendDataBatch is sendData with optional batched eviction accounting: a
// non-nil db absorbs queue-full evictions for a later settle instead of
// counting each one immediately. The publish fan-out passes its per-scratch
// batch; everyone else passes nil.
func (q *egress) sendDataBatch(f *sharedFrame, db *dropBatch) {
	if q.down.Load() {
		q.drop(f, obs.DropConnDown)
		return
	}
	if len(f.buf) > maxEgressFrame {
		q.drop(f, obs.DropFrameTooLarge)
		return
	}
	select {
	case q.ch <- f:
		q.reapIfDown()
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
		q.reapIfDown()
	default:
		if db != nil {
			db.evicted(q, f)
		} else {
			q.drop(f, obs.DropQueueFull)
		}
	}
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
