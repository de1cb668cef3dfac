package broker

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"

	"narada/internal/event"
	"narada/internal/obs"
	"narada/internal/transport"
)

// TestSharedFrameOverReleasePanics proves the refcount guard: releasing more
// references than a frame carries would hand a recycled buffer to a live
// fan-out, so the second release must panic instead of corrupting the pool.
func TestSharedFrameOverReleasePanics(t *testing.T) {
	pool := newTestPool()
	f := frameOf(pool, []byte{1, 2, 3}, 1)
	f.release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release of a shared frame did not panic")
		}
	}()
	f.release()
}

// TestFramePoolRecycles proves the encode/release cycle reuses buffers and
// that the hit/miss counters observe it: the first encode allocates, later
// encodes are served by the recycled frame, and live drops back to zero.
func TestFramePoolRecycles(t *testing.T) {
	var hits, misses obs.Counter
	pool := newFramePool(&hits, &misses)
	ev := event.New(event.TypePublish, "pool/topic", []byte("payload"))

	f := pool.encode(ev, 2)
	if pool.Live() != 1 {
		t.Fatalf("live after encode = %d, want 1", pool.Live())
	}
	first := f.bytes()
	if dec, err := event.Decode(first); err != nil || dec.Topic != "pool/topic" {
		t.Fatalf("encoded frame failed to decode: %v", err)
	}
	f.release()
	if pool.Live() != 1 {
		t.Fatalf("live after first of two releases = %d, want 1", pool.Live())
	}
	f.release()
	if pool.Live() != 0 {
		t.Fatalf("live after final release = %d, want 0", pool.Live())
	}

	// sync.Pool may drop items under GC pressure, so assert on the counters
	// only when the pool actually served a recycled frame.
	g := pool.encode(ev, 1)
	g.release()
	if hits.Value()+misses.Value() != 2 {
		t.Fatalf("hit+miss = %d+%d, want 2 encodes observed", hits.Value(), misses.Value())
	}
	if misses.Value() == 0 {
		t.Fatal("first encode cannot be a pool hit")
	}
}

// TestPublishFrameLifecycleUnderChurn is the -race stress for the lock-free
// fan-out: concurrent publishers share frames across dozens of egress
// queues while subscription churn swaps trie snapshots underneath them.
// After producers quiesce and every writer drains, the frame pool must
// account for every reference — no leak, no double release (which would
// have panicked).
func TestPublishFrameLifecycleUnderChurn(t *testing.T) {
	br := newFanoutBroker(t, nil)
	const clients = 24
	conns := make([]*clientConn, clients)
	for i := range conns {
		id := fmt.Sprintf("sub-%d", i)
		conns[i] = addBenchClient(br, id)
		pattern := "churn/fan/topic"
		switch i % 4 {
		case 1:
			pattern = "churn/fan/*"
		case 2:
			pattern = "churn/**"
		}
		if _, err := br.subs.SubscribeValue(id, pattern, conns[i].out); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := br.Publish("churn/fan/topic", []byte("stress")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Churner: resubscribes a rotating slice of the population while the
	// publishers run, forcing snapshot swaps and value refreshes mid-match.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			id := fmt.Sprintf("sub-%d", i%clients)
			br.subs.Unsubscribe(id, "churn/fan/topic")
			if _, err := br.subs.SubscribeValue(id, "churn/fan/topic", conns[i%clients].out); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// Quiesce: stop every writer and wait for its exit drain, then every
	// frame reference must be back in the pool.
	for _, c := range conns {
		c.out.close()
		<-c.out.dead
	}
	if live := br.frames.Live(); live != 0 {
		t.Fatalf("%d frame references leaked through the fan-out", live)
	}
}

// TestSampledPublishFrameLifecycle re-runs the fan-out churn with message
// sampling fully live (sample every publish, real tracer): the trace-id and
// flow stamps ride the shared frames, and when the writers quiesce every
// reference must still come back to the pool — sampling must not perturb
// refcounting.
func TestSampledPublishFrameLifecycle(t *testing.T) {
	tracer := obs.NewTracer(obs.DefaultTraceCapacity, nil)
	br := newFanoutBroker(t, func(cfg *Config) {
		cfg.PublishSampler = obs.NewSampler(1, 0) // every publish sampled
		cfg.Tracer = tracer
	})
	const clients = 16
	conns := make([]*clientConn, clients)
	for i := range conns {
		id := fmt.Sprintf("sampled-sub-%d", i)
		conns[i] = addBenchClient(br, id)
		if _, err := br.subs.SubscribeValue(id, "sampled/fan/topic", conns[i].out); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if err := br.Publish("sampled/fan/topic", []byte("stress")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	for _, c := range conns {
		c.out.close()
		<-c.out.dead
	}
	if live := br.frames.Live(); live != 0 {
		t.Fatalf("%d frame references leaked through the sampled fan-out", live)
	}
	if br.cfg.PublishSampler.Taken() == 0 {
		t.Fatal("sampler never fired despite every=1")
	}
}

// TestPublishFrameLifecycleUnderChurnSocket is the churn storm again, entering
// through real sockets: readers receive into pooled frames, publishes pass
// through to local queues and (copied or patched in place) to a link, while
// subscriptions churn, subscribers vanish with frames queued to them, and
// publishers are killed mid-burst and mid-frame. Once every connection is gone
// and both brokers have shut down, each frame — ingress, link copy, re-encoded
// — must be back in its pool.
func TestPublishFrameLifecycleUnderChurnSocket(t *testing.T) {
	a := realBroker(t, "churn-a", nil)
	b := realBroker(t, "churn-b", nil)
	linkReal(t, b, a)
	// Drained subscribers on both brokers, plus ones that hang up mid-storm.
	drain := func(c transport.Conn) {
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	}
	var quitters []transport.Conn
	for i := 0; i < 8; i++ {
		br := a
		if i%4 == 3 {
			br = b
		}
		sub := rawSubscriber(t, br, []string{"sock/fan/topic", "sock/fan/*", "sock/**"}[i%3])
		if i%2 == 0 {
			go drain(sub)
		} else {
			quitters = append(quitters, sub) // never reads: its queue backs up, then it dies
		}
	}

	burst := func(p, n int) [][]byte {
		frames := make([][]byte, n)
		for i := range frames {
			ev := event.New(event.TypePublish, "sock/fan/topic", []byte("stress"))
			ev.Source = fmt.Sprintf("pub%d", p)
			if i%7 == 0 {
				ev.Source = "" // stamped: decode → encode path
			}
			if i%11 == 0 {
				ev.Topic = "elsewhere/nobody/listens" // no local match: the hop is spent in place
			}
			frames[i] = event.Encode(ev)
		}
		return frames
	}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		conn := rawConn(t, a)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				if err := conn.SendBatch(burst(p, 40)); err != nil {
					t.Error(err)
					return
				}
			}
			if p%2 == 0 {
				conn.Close() // killed with its last burst still in flight
			}
		}(p)
	}
	// A publisher that dies half-way through a frame.
	wg.Add(1)
	go func() {
		defer wg.Done()
		raw, err := net.Dial("tcp", a.StreamAddr())
		if err != nil {
			t.Error(err)
			return
		}
		defer raw.Close()
		var wire []byte
		for _, f := range burst(9, 20) {
			wire = append(binary.BigEndian.AppendUint32(wire, uint32(len(f))), f...)
		}
		if _, err := raw.Write(wire[:len(wire)-17]); err != nil {
			t.Error(err)
		}
	}()
	// Churner: resubscribes over its own socket while the publishers run.
	churner := rawConn(t, a)
	go drain(churner)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 150; i++ {
			typ := event.TypeSubscribe
			if i%2 == 1 {
				typ = event.TypeUnsubscribe
			}
			if err := churner.Send(event.Encode(event.New(typ, "sock/fan/topic", nil))); err != nil {
				t.Error(err)
				return
			}
			if i == 75 {
				for _, q := range quitters {
					q.Close()
				}
			}
		}
	}()
	wg.Wait()
	// The sockets hold what was sent; the storm has reached both brokers once
	// each has read a publish from them.
	waitFor(t, "the storm to reach both brokers", func() bool {
		return a.tel.framesPublish.Value() > 0 && b.tel.framesPublish.Value() > 0
	})

	a.Close()
	b.Close()
	for _, br := range []*Broker{a, b} {
		if live := br.frames.Live(); live != 0 {
			t.Errorf("%s: %d frame references leaked through the socket path", br.LogicalAddress(), live)
		}
	}
}
