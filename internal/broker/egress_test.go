package broker

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"narada/internal/event"
	"narada/internal/ntptime"
	"narada/internal/obs"
	"narada/internal/simnet"
	"narada/internal/transport"
)

// fakeConn is the transport.Conn every broker test fake is: nothing to
// receive, and every send made of write, the one call a fake decides.
type fakeConn struct {
	write func(frames [][]byte, skip int, wait bool) (int, error)
}

func (c fakeConn) WriteBatch(frames [][]byte, skip int, wait bool) (int, error) {
	return c.write(frames, skip, wait)
}
func (c fakeConn) SendBatch(frames [][]byte) error         { _, err := c.write(frames, 0, true); return err }
func (c fakeConn) Send(p []byte) error                     { return c.SendBatch([][]byte{p}) }
func (fakeConn) Recv() ([]byte, error)                     { select {} }
func (fakeConn) RecvInto([]byte) ([]byte, error)           { select {} }
func (fakeConn) RecvTimeout(time.Duration) ([]byte, error) { return nil, transport.ErrTimeout }
func (fakeConn) FrameBuffered() bool                       { return false }
func (fakeConn) LocalAddr() string                         { return "test/fake:0" }
func (fakeConn) RemoteAddr() string                        { return "test/fake:0" }
func (fakeConn) Close() error                              { return nil }

// frameConn is a fakeConn that writes a batch one send per whole frame,
// blocking with or without wait, past the frames an earlier call wrote.
func frameConn(send func([]byte) error) fakeConn {
	return fakeConn{write: func(frames [][]byte, skip int, _ bool) (int, error) {
		n := 0
		for _, p := range frames {
			if size := transport.PrefixLen + len(p); skip >= size {
				skip -= size
			} else if err := send(p); err != nil {
				return n, err
			} else {
				n += size
			}
		}
		return n, nil
	}}
}

// discard is the write of a peer that takes every batch whole at once.
func discard(frames [][]byte, skip int, _ bool) (int, error) {
	n := -skip
	for _, p := range frames {
		n += transport.PrefixLen + len(p)
	}
	return n, nil
}

// blockConn's sends block until it is closed, simulating a stalled peer.
type blockConn struct {
	closed chan struct{}
	once   sync.Once
}

func newBlockConn() *blockConn { return &blockConn{closed: make(chan struct{})} }

func (c *blockConn) send([]byte) error { <-c.closed; return transport.ErrClosed }
func (c *blockConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// recConn records every frame it is asked to send. Frames are copied: the
// shared buffer handed to send is recycled once the egress releases it.
type recConn struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *recConn) send(f []byte) error {
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), f...))
	c.mu.Unlock()
	return nil
}

func (c *recConn) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

// newTestPool builds a frame pool with throwaway counters.
func newTestPool() *framePool {
	return newFramePool(&obs.Counter{}, &obs.Counter{})
}

// testTel is a bare egressTel with one distinct counter per drop reason, so
// tests can assert both the aggregate and the classification.
type testTel struct {
	queueFull, connDown, tooLarge obs.Counter
	tel                           egressTel
}

func newTestTel() *testTel {
	tt := &testTel{}
	tt.tel = egressTel{
		dropQueueFull: &tt.queueFull,
		dropConnDown:  &tt.connDown,
		dropTooLarge:  &tt.tooLarge,
	}
	return tt
}

func (tt *testTel) dropped() uint64 {
	return tt.queueFull.Value() + tt.connDown.Value() + tt.tooLarge.Value()
}

// frameOf checks a raw-payload frame out of the pool, mirroring encode.
func frameOf(p *framePool, payload []byte, refs int32) *sharedFrame {
	f, _ := p.pool.Get().(*sharedFrame)
	if f == nil {
		f = &sharedFrame{pool: p}
	}
	f.buf = append(f.buf[:0], payload...)
	f.refs.Store(refs)
	p.live.Add(1)
	return f
}

// TestEgressOverflowDropsOldest proves the routing loop can never be stalled
// by a dead peer: sendData against a fully blocked connection keeps
// returning immediately, and the overflow is counted. Every frame reference
// must come back to the pool regardless of how it was dropped.
func TestEgressOverflowDropsOldest(t *testing.T) {
	tt := newTestTel()
	pool := newTestPool()
	conn := newBlockConn()
	q := newEgress(frameConn(conn.send), &tt.tel, "local")
	go q.run()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4*egressQueueSize; i++ {
			q.sendData(frameOf(pool, []byte{byte(i)}, 1))
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sendData blocked on a stalled peer")
	}
	if tt.queueFull.Value() == 0 {
		t.Fatal("overflow on a stalled peer was not counted as queue_full")
	}
	_ = conn.Close()
	<-q.dead
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d frame references leaked through the overflow path", live)
	}
}

// TestEgressFlushesOnClose proves frames accepted before a close are still
// written out: the writer drains the whole queue before exiting.
func TestEgressFlushesOnClose(t *testing.T) {
	tt := newTestTel()
	pool := newTestPool()
	conn := &recConn{}
	q := newEgress(frameConn(conn.send), &tt.tel, "local")
	const frames = 100
	for i := 0; i < frames; i++ {
		q.sendData(frameOf(pool, []byte{byte(i)}, 1))
	}
	q.close()
	q.run() // synchronous: drains everything, then exits via flush
	if got := conn.count(); got != frames {
		t.Fatalf("flushed %d frames on close, want %d", got, frames)
	}
	if tt.dropped() != 0 {
		t.Fatalf("flush dropped %d frames", tt.dropped())
	}
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d frame references leaked through the flush path", live)
	}
}

// TestEgressControlFailsAfterDeath proves sendControl cannot hang forever on
// a dead connection: once the writer exits, every call reports failure and
// releases its frame.
func TestEgressControlFailsAfterDeath(t *testing.T) {
	tt := newTestTel()
	pool := newTestPool()
	conn := newBlockConn()
	_ = conn.Close() // sends fail immediately
	q := newEgress(frameConn(conn.send), &tt.tel, "local")
	q.sendData(frameOf(pool, []byte{1}, 1)) // give the writer a frame so it hits the send error
	go q.run()
	<-q.dead
	successes := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2*egressQueueSize; i++ {
			if q.sendControl(frameOf(pool, []byte{2}, 1)) {
				successes++
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sendControl blocked on a dead writer")
	}
	if successes != 0 {
		t.Fatalf("%d sendControl calls reported success past a dead writer", successes)
	}
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d frame references leaked past a dead writer", live)
	}
}

// TestEgressCoalescesBatches proves the writer drains a backlog in batches:
// frames queued while the connection is stalled leave in WriteBatch calls of
// many frames, not one write per frame.
func TestEgressCoalescesBatches(t *testing.T) {
	tt := newTestTel()
	pool := newTestPool()
	conn := &batchRecConn{gate: make(chan struct{})}
	q := newEgress(fakeConn{write: conn.writeBatch}, &tt.tel, "local")
	go q.run()

	const frames = 100
	for i := 0; i < frames; i++ {
		q.sendData(frameOf(pool, []byte{byte(i)}, 1))
	}
	close(conn.gate) // un-stall: the writer should now drain in bursts
	deadline := time.After(10 * time.Second)
	for conn.total() < frames {
		select {
		case <-deadline:
			t.Fatalf("writer delivered %d of %d frames", conn.total(), frames)
		case <-time.After(time.Millisecond):
		}
	}
	q.close()
	<-q.dead
	if conn.batches() >= frames {
		t.Fatalf("%d writes for %d frames: no coalescing happened", conn.batches(), frames)
	}
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d frame references leaked through the batch path", live)
	}
}

// TestEgressDropReasons proves drops are classified by cause: an oversized
// frame is rejected as frame_too_large, frames stranded or offered after the
// writer died count as conn_down, and neither path leaks a frame reference.
func TestEgressDropReasons(t *testing.T) {
	tt := newTestTel()
	pool := newTestPool()
	conn := newBlockConn()
	q := newEgress(frameConn(conn.send), &tt.tel, "local")

	q.sendData(frameOf(pool, make([]byte, maxEgressFrame+1), 1))
	if got := tt.tooLarge.Value(); got != 1 {
		t.Fatalf("oversized frame counted as frame_too_large %d times, want 1", got)
	}

	// Two queued frames, writer running against a closed connection: the
	// failed flush and the exit drain both classify as conn_down.
	q.sendData(frameOf(pool, []byte{1}, 1))
	q.sendData(frameOf(pool, []byte{2}, 1))
	_ = conn.Close()
	q.run() // synchronous: send error tears the queue down
	if got := tt.connDown.Value(); got != 2 {
		t.Fatalf("death stranded 2 frames but conn_down counted %d", got)
	}

	// A frame offered after death is conn_down too, never queue_full.
	q.sendData(frameOf(pool, []byte{3}, 1))
	if got := tt.connDown.Value(); got != 3 {
		t.Fatalf("post-death sendData counted conn_down %d times, want 3", got)
	}
	if got := tt.queueFull.Value(); got != 0 {
		t.Fatalf("no queue ever overflowed, yet queue_full counted %d", got)
	}
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d frame references leaked through the drop paths", live)
	}
}

// batchRecConn records batch sizes. The gate stalls the first write so a
// backlog can build behind it; every write takes its whole batch.
type batchRecConn struct {
	gate chan struct{}

	mu    sync.Mutex
	sizes []int
}

func (c *batchRecConn) writeBatch(frames [][]byte, skip int, wait bool) (int, error) {
	<-c.gate
	c.mu.Lock()
	c.sizes = append(c.sizes, len(frames))
	c.mu.Unlock()
	return discard(frames, skip, wait)
}

func (c *batchRecConn) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range c.sizes {
		n += s
	}
	return n
}

func (c *batchRecConn) batches() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sizes)
}

// scriptConn is a connection whose non-blocking writes take a
// scripted number of bytes per call, cycling through script (-1: all); a
// blocking write takes everything. It records the byte stream it accepted.
type scriptConn struct {
	mu     sync.Mutex
	script []int
	rng    *rand.Rand // when set, each non-blocking call takes a random amount instead
	calls  int
	stream []byte
}

func (c *scriptConn) writeBatch(frames [][]byte, skip int, wait bool) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var wire []byte
	for _, p := range frames {
		wire = binary.BigEndian.AppendUint32(wire, uint32(len(p)))
		wire = append(wire, p...)
	}
	wire = wire[skip:]
	n := len(wire)
	if !wait {
		k := -1
		if c.rng != nil {
			k = c.rng.Intn(n + 1)
		} else if len(c.script) > 0 {
			k = c.script[c.calls%len(c.script)]
		}
		c.calls++
		if k >= 0 && k < n {
			n = k
		}
	}
	c.stream = append(c.stream, wire[:n]...)
	return n, nil
}

// frames parses the accepted stream back into sequence numbers, failing on
// a torn or malformed frame.
func (c *scriptConn) frames(t *testing.T) []uint64 {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var seqs []uint64
	for s := c.stream; len(s) > 0; {
		if len(s) < 4 {
			t.Fatalf("stream ends inside a length prefix")
		}
		n := int(binary.BigEndian.Uint32(s))
		if len(s) < 4+n {
			t.Fatalf("stream ends inside a %d-byte frame", n)
		}
		seq := binary.BigEndian.Uint64(s[4:])
		if !bytes.Equal(s[4:4+n], seqPayload(seq)) {
			t.Fatalf("frame %d arrived corrupted", seq)
		}
		seqs = append(seqs, seq)
		s = s[4+n:]
	}
	return seqs
}

// seqPayload is frame seq's bytes: the sequence number, then a filler whose
// length varies, so prefixes and payloads fall at every kind of offset.
func seqPayload(seq uint64) []byte {
	p := binary.BigEndian.AppendUint64(nil, seq)
	return append(p, bytes.Repeat([]byte{byte(seq)}, int(seq%13))...)
}

// feedInline queues n frames the way a connection reader does — into q with
// a flush set, flushing after every burst of 1..70 frames (so some bursts
// exceed a batch) — until n are queued or q is down. It returns how many
// frames it queued. A socket reader cannot outrun the writer by a whole
// queue the way this loop could, so it waits while half the queue is full.
func feedInline(q *egress, pool *framePool, n int, rng *rand.Rand) int {
	var set flushSet
	seq := 0
	for seq < n && !q.down.Load() {
		for q.depth() > egressQueueSize/2 && !q.down.Load() {
			runtime.Gosched()
		}
		for burst := 1 + rng.Intn(70); burst > 0 && seq < n; burst-- {
			q.sendDataBatch(frameOf(pool, seqPayload(uint64(seq)), 1), nil, &set)
			seq++
		}
		set.flush()
	}
	return seq
}

// TestEgressInlineShortWrites drives the reader's inline flush against
// non-blocking writes that take nothing, part of a length prefix, part of a
// payload, or everything, so batches are handed to the writer goroutine at
// every kind of offset. Every frame must arrive byte-exact, in order and
// once, and every reference must come back.
func TestEgressInlineShortWrites(t *testing.T) {
	scripts := map[string]*scriptConn{
		"0,prefix,payload,all": {script: []int{0, 2, 7, -1}},
		"all":                  {script: []int{-1}},
		"none":                 {script: []int{0}},
		"random":               {rng: rand.New(rand.NewSource(3))},
	}
	for name, conn := range scripts {
		t.Run(name, func(t *testing.T) {
			tt := newTestTel()
			pool := newTestPool()
			q := newEgress(fakeConn{write: conn.writeBatch}, &tt.tel, "local")
			go q.run()
			const frames = 3000
			feedInline(q, pool, frames, rand.New(rand.NewSource(1)))
			q.close()
			<-q.dead
			seqs := conn.frames(t)
			if len(seqs) != frames || tt.dropped() != 0 {
				t.Fatalf("%d frames written, %d dropped, of %d", len(seqs), tt.dropped(), frames)
			}

			for i, seq := range seqs {
				if seq != uint64(i) {
					t.Fatalf("frame %d arrived as number %d", seq, i)
				}
			}
			if live := pool.Live(); live != 0 {
				t.Fatalf("%d frame references leaked", live)
			}
		})
	}
}

// TestEgressHandOffIsTheWriters: once a reader has handed a part-written
// batch over, no reader touches the connection until the writer goroutine
// has finished it — readers would only spin non-blocking writes against a
// socket that is pushing back.
func TestEgressHandOffIsTheWriters(t *testing.T) {
	tt := newTestTel()
	pool := newTestPool()
	conn := &scriptConn{script: []int{2}} // every non-blocking write takes 2 bytes
	q := newEgress(fakeConn{write: conn.writeBatch}, &tt.tel, "local")
	var set flushSet
	for seq := uint64(0); seq < 3; seq++ {
		q.sendDataBatch(frameOf(pool, seqPayload(seq), 1), nil, &set)
	}
	set.flush()     // writes 2 bytes and hands the batch over
	q.flushInline() // a reader's later flushes must not write
	q.flushInline()
	if conn.calls != 1 || len(conn.stream) != 2 {
		t.Fatalf("readers made %d writes (%d bytes) around a handed batch, want 1 (2)", conn.calls, len(conn.stream))
	}
	go q.run()
	q.close()
	<-q.dead
	if seqs := conn.frames(t); len(seqs) != 3 || seqs[2] != 2 {
		t.Fatalf("writer delivered %v, want [0 1 2]", seqs)
	}
	if live := pool.Live(); live != 0 {
		t.Fatalf("%d frame references leaked", live)
	}
}

// TestEgressCloseRacesHandOff closes the queue while a reader is queuing,
// flushing inline and handing batches part-written to the writer goroutine.
// What was written must be whole frames, in order, each once: a prefix of
// what was queued, the rest counted as conn_down; no reference may leak.
func TestEgressCloseRacesHandOff(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		conn := &scriptConn{rng: rand.New(rand.NewSource(seed))}
		tt := newTestTel()
		pool := newTestPool()
		q := newEgress(fakeConn{write: conn.writeBatch}, &tt.tel, "local")
		go q.run()
		queued := make(chan int, 1)
		go func() { queued <- feedInline(q, pool, 5000, rand.New(rand.NewSource(seed))) }()
		time.Sleep(time.Duration(seed%5) * 300 * time.Microsecond)
		q.close()
		<-q.dead
		n := <-queued
		seqs := conn.frames(t)
		for i, seq := range seqs {
			if seq != uint64(i) {
				t.Fatalf("seed %d: frame %d arrived as number %d", seed, seq, i)
			}
		}
		if got := uint64(len(seqs)) + tt.connDown.Value(); got != uint64(n) || tt.queueFull.Value() != 0 {
			t.Fatalf("seed %d: %d queued, %d written + %d conn_down, %d queue_full",
				seed, n, len(seqs), tt.connDown.Value(), tt.queueFull.Value())
		}
		if live := pool.Live(); live != 0 {
			t.Fatalf("seed %d: %d frame references leaked", seed, live)
		}
	}
}

// TestSlowConsumerIsolationOnSockets puts a subscriber that never reads next
// to one that does, over loopback TCP and over simnet, and publishes until
// the stalled one's connection and its whole queue are full, then keeps
// going. The reading subscriber must get every frame in order while the
// publisher's sends never stall — a reader of the broker that blocked on the
// stalled connection would stop both — and every frame the stalled subscriber
// lost must be counted as queue_full.
func TestSlowConsumerIsolationOnSockets(t *testing.T) {
	t.Run("loopback", func(t *testing.T) { slowConsumerIsolation(t, realBroker(t, "iso", nil), 1) })
	t.Run("simnet", func(t *testing.T) {
		e := newEnv(t, 1)
		scale := e.net.Clock().(*ntptime.ScaledClock).Scale()
		slowConsumerIsolation(t, e.broker(simnet.SiteUMN, "iso", Config{}), scale)
	})
}

// slowConsumerIsolation runs the isolation test against br, whose clock runs
// scale model seconds to the wall second (receive timeouts are model time).
func slowConsumerIsolation(t *testing.T, br *Broker, scale float64) {
	within := func(d time.Duration) time.Duration { return time.Duration(float64(d) * scale) }
	const topic = "iso/feed"
	stalled := rawSubscriber(t, br, topic)
	reader := rawSubscriber(t, br, topic)
	pub := rawConn(t, br)

	// The reading subscriber checks order and counts.
	var got atomic.Int64
	fail := make(chan error, 1)
	go func() {
		for i := uint64(0); ; i++ {
			frame, err := reader.RecvTimeout(within(30 * time.Second))
			if err == nil {
				var ev *event.Event
				if ev, err = event.Decode(frame); err == nil && binary.BigEndian.Uint64(ev.Payload) != i {
					err = fmt.Errorf("frame %d arrived as number %d", binary.BigEndian.Uint64(ev.Payload), i)
				}
			}
			if err != nil {
				fail <- err
				return
			}
			got.Add(1)
		}
	}()
	// waitReader waits, within bound, for the reader to get all but window
	// of the frames sent.
	waitReader := func(sent, window int64, bound time.Duration) {
		t.Helper()
		for deadline := time.Now().Add(bound); sent-got.Load() > window; time.Sleep(100 * time.Microsecond) {
			select {
			case err := <-fail:
				t.Fatalf("reading subscriber: %v", err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("reading subscriber has %d of %d frames after %v", got.Load(), sent, bound)
			}
		}
	}

	// Frames of 8 KiB — below inlineMax, so the readers write them — fill
	// the stalled socket in few publishes (simnet counts frames: its
	// 1024-frame receive backlog, then its transmit queue); more than a
	// queue's worth follow the first overflow.
	payload := make([]byte, 8<<10)
	var sent, afterFull int64
	for afterFull < 2*egressQueueSize {
		if sent > 200000 {
			t.Fatal("the stalled subscriber's queue never overflowed")
		}
		waitReader(sent, 256, 10*time.Second)
		binary.BigEndian.PutUint64(payload, uint64(sent))
		start := time.Now()
		if err := pub.Send(event.Encode(event.New(event.TypePublish, topic, payload))); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("publish %d stalled for %v", sent, d)
		}
		sent++
		if br.tel.egressDropQueueFull.Value() > 0 {
			afterFull++
		}
	}
	waitReader(sent, 0, 10*time.Second)

	// Now the stalled subscriber reads: it must get, in order, exactly the
	// frames not counted as queue_full.
	lost := int64(br.tel.egressDropQueueFull.Value())
	prev := int64(-1)
	for n := int64(0); n < sent-lost; n++ {
		frame, err := stalled.RecvTimeout(within(10 * time.Second))
		if err != nil {
			t.Fatalf("stalled subscriber got %d of the %d frames not dropped: %v", n, sent-lost, err)
		}
		ev, err := event.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if seq := int64(binary.BigEndian.Uint64(ev.Payload)); seq <= prev {
			t.Fatalf("stalled subscriber got frame %d after %d", seq, prev)
		} else {
			prev = seq
		}
	}
	if extra, err := stalled.RecvTimeout(within(100 * time.Millisecond)); err == nil {
		t.Fatalf("stalled subscriber got a frame beyond the %d not dropped (%d bytes)", sent-lost, len(extra))
	}
	if down, tooLarge := br.tel.egressDropConnDown.Value(), br.tel.egressDropTooLarge.Value(); down+tooLarge != 0 {
		t.Fatalf("drops other than queue_full: %d conn_down, %d frame_too_large", down, tooLarge)
	}

	for _, c := range []transport.Conn{pub, stalled, reader} {
		c.Close()
	}
	waitFor(t, "every frame back in the pool", func() bool { return br.frames.Live() == 0 })
}
