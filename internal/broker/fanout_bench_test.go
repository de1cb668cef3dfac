package broker

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"narada/internal/event"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/obs"
	"narada/internal/simnet"
	"narada/internal/transport"
)

// newFanoutBroker builds an unstarted broker suitable for driving
// publishEvent directly. mut, when non-nil, adjusts the config before New.
func newFanoutBroker(b testing.TB, mut func(*Config)) *Broker {
	b.Helper()
	net := simnet.NewPaperWAN(simnet.Config{Seed: 1})
	node := transport.NewSimNode(net, simnet.SiteIndianapolis, "fan", 0)
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()
	cfg := Config{
		LogicalAddress: "fan",
		Sampler:        metrics.NewStaticSampler(metrics.Usage{TotalMemBytes: 1 << 30}),
	}
	if mut != nil {
		mut(&cfg)
	}
	br, err := New(node, ntp, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return br
}

// addBenchClient registers a discard-everything client straight into the
// broker's client table, with a running egress writer like a real session, so
// the fan-out benchmarks measure the broker's own publish pipeline (matching,
// locking, encoding, queueing, writing) rather than a peer's consumption.
func addBenchClient(br *Broker, id string) *clientConn {
	c := &clientConn{id: id, conn: fakeConn{write: discard}}
	c.out = br.newEgress(c.conn, "local")
	br.startEgress(c.out)
	br.mu.Lock()
	br.clients[id] = c
	br.mu.Unlock()
	return c
}

// BenchmarkPublishFanout measures the core publish fan-out path: one event
// delivered to 64 local subscribers (a mix of exact and wildcard interest).
// This is the hot loop behind every advertisement, discovery request and
// application publish in the substrate. It times delivery: every half queue
// of publishes it waits for the writers to empty every queue, so no queue
// fills and no frame is evicted, and it fails if one is.
func BenchmarkPublishFanout(b *testing.B) {
	br := newFanoutBroker(b, nil)
	queues := subscribeFanout(b, br)

	payload := make([]byte, 256)
	ev := event.New(event.TypePublish, "bench/fan/topic", payload)
	ev.Source = "fan"

	dropped := br.tel.egressDropQueueFull.Value()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		// Encode and route, without admission: the scope this benchmark's
		// recorded trajectory (BENCH_fanout.json) has always had.
		if v, f, ok := br.frameEvent(ev); ok {
			br.fanOut(&v, f, "", nil)
		}
		if i%(egressQueueSize/2) == 0 {
			drainQueues(queues)
		}
	}
	drainQueues(queues)
	b.StopTimer()
	if n := br.tel.egressDropQueueFull.Value() - dropped; n != 0 {
		b.Fatalf("%d frames evicted from full egress queues", n)
	}
}

// drainQueues waits for the writers to empty every queue.
func drainQueues(queues []*egress) {
	for _, q := range queues {
		for len(q.ch) > 0 {
			runtime.Gosched()
		}
	}
}

// benchSeq numbers the fan-out benchmarks' events across every b.N round.
var benchSeq uint64

// freshID gives a reused event an id the dedup window has not seen, as every
// real publish has; little-endian, so the ids spread over the dedup shards.
func freshID(ev *event.Event) {
	benchSeq++
	binary.LittleEndian.PutUint64(ev.ID[:], benchSeq)
}

// subscribeFanout registers the benchmark's 64-subscriber interest mix and
// returns their egress queues.
func subscribeFanout(b testing.TB, br *Broker) []*egress {
	b.Helper()
	const subscribers = 64
	var queues []*egress
	for i := 0; i < subscribers; i++ {
		id := fmt.Sprintf("sub-%d", i)
		c := addBenchClient(br, id)
		pattern := "bench/fan/topic"
		switch i % 4 {
		case 1:
			pattern = "bench/fan/*"
		case 2:
			pattern = "bench/**"
		}
		// The registration carries the delivery queue, as a real subscribe
		// does.
		if _, err := br.subs.SubscribeValue(id, pattern, c.out); err != nil {
			b.Fatal(err)
		}
		queues = append(queues, c.out)
	}
	return queues
}

// BenchmarkPublishFanoutSampled measures the fan-out with message-path
// sampling active: a 1-in-1024 sampler and a live tracer, the production
// shape. Sampled iterations pay for header stamping, trace-id formatting and
// span recording; amortised over the sampling interval the path must stay at
// 0 allocs/op (the bench gate checks allocations only — wall time belongs to
// the unsampled benchmark above). Like that one it drains its queues every
// half queue of publishes and fails if a frame is evicted, so it measures
// delivery, not the drop path.
func BenchmarkPublishFanoutSampled(b *testing.B) {
	tracer := obs.NewTracer(obs.DefaultTraceCapacity, nil)
	br := newFanoutBroker(b, func(cfg *Config) {
		cfg.PublishSampler = obs.NewSampler(1024, 0)
		cfg.Tracer = tracer
	})
	queues := subscribeFanout(b, br)

	payload := make([]byte, 256)
	ev := event.New(event.TypePublish, "bench/fan/topic", payload)
	ev.Source = "fan"
	ev.Timestamp = br.now()

	dropped := br.tel.egressDropQueueFull.Value()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		freshID(ev)
		br.publishEvent(ev, "")
		if i%(egressQueueSize/2) == 0 {
			drainQueues(queues)
		}
	}
	drainQueues(queues)
	b.StopTimer()
	if n := br.tel.egressDropQueueFull.Value() - dropped; n != 0 {
		b.Fatalf("%d frames evicted from full egress queues", n)
	}
}

// BenchmarkIngressToEgress measures what a publish really pays inside the
// broker: pre-encoded frames written to a real loopback connection, received
// by serveClient into pooled frames, parsed in place, deduplicated, matched
// and handed by reference to 4 or 64 subscriber egress queues. The publisher
// reuses one batch of frames (patching a fresh event id into each), so every
// allocation the benchmark reports is made on the broker's side of the socket
// — and in steady state there must be none (the bench gate holds every
// sub-benchmark at 0 allocs/op). In subs=4 and subs=64 the subscribers are
// discard-everything queues; in the /sockets rungs they are real loopback
// connections drained by reader goroutines, so the rung includes the writev
// the broker's reader makes for them, and payload=16384 carries bulk frames
// to one subscriber or four. A socket rung fails if the broker drops a frame.
func BenchmarkIngressToEgress(b *testing.B) {
	for _, subs := range []int{4, 64} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) { benchIngressToEgress(b, subs, false, 256) })
	}
	b.Run("subs=4/sockets", func(b *testing.B) { benchIngressToEgress(b, 4, true, 256) })
	for _, subs := range []int{1, 4} {
		b.Run(fmt.Sprintf("subs=%d/sockets/payload=16384", subs), func(b *testing.B) {
			benchIngressToEgress(b, subs, true, 16<<10)
		})
	}
}

func benchIngressToEgress(b *testing.B, subs int, sockets bool, size int) {
	const topic = "bench/ingress/topic"
	br := realBroker(b, "ingress", nil)
	// delivered counts what the subscribers got: with sockets, the frames the
	// slowest subscriber has read off its socket; without, the frames routed
	// to all the queues together.
	delivered, per := br.tel.deliveredLocal.Value, uint64(subs)
	received := make([]atomic.Uint64, subs)
	for i := 0; i < subs; i++ {
		if !sockets {
			id := fmt.Sprintf("sub-%d", i)
			c := addBenchClient(br, id)
			if _, err := br.subs.SubscribeValue(id, topic, c.out); err != nil {
				b.Fatal(err)
			}
			continue
		}
		conn := rawSubscriber(b, br, topic)
		go func() {
			buf := make([]byte, 0, 2*size+4096)
			for {
				var err error
				if buf, err = conn.RecvInto(buf); err != nil {
					return
				}
				received[i].Add(1)
			}
		}()
	}
	if sockets {
		per = 1
		delivered = func() uint64 {
			least := received[0].Load()
			for i := range received {
				least = min(least, received[i].Load())
			}
			return least
		}
	}
	pub := rawConn(b, br)

	const batch = 32 // frames per vectored write, as an egress flush would coalesce
	payload := make([]byte, size)
	frames := make([][]byte, batch)
	idOff := make([]int, batch)
	for i := range frames {
		ev := event.New(event.TypePublish, topic, payload)
		ev.Source = "bench-publisher"
		frames[i] = event.Encode(ev)
		idOff[i] = bytes.Index(frames[i], ev.ID[:])
	}
	var seq uint64
	// await spins until the subscribers have want frames. One that waits 10 s
	// has a frame stranded in the broker (a lost wake-up of a queue's
	// writer, say): it fails with every queue's state instead of hanging.
	await := func(want uint64) {
		for deadline := time.Now().Add(10 * time.Second); delivered() < want; runtime.Gosched() {
			if time.Now().After(deadline) {
				b.Fatalf("%d frames sent to %d subscribers: %d of %d deliveries after 10s; queues: %s",
					seq, subs, delivered(), want, queueStates(br))
			}
		}
	}
	publish := func(n int) {
		for sent := 0; sent < n; sent += batch {
			k := min(batch, n-sent)
			// Sockets push back: keep every subscriber's queue short of
			// drop-oldest, which would lose frames the count waits for. The
			// bound is on each subscriber, so one starved reader cannot fall
			// a whole queue behind while the others run ahead.
			if lag := uint64(egressQueueSize / 2); sockets && seq > lag {
				await(seq - lag)
			}
			for i := 0; i < k; i++ {
				seq++
				binary.BigEndian.PutUint64(frames[i][idOff[i]:], seq) // a fresh id: no dedup hit
			}
			if err := pub.SendBatch(frames[:k]); err != nil {
				b.Fatal(err)
			}
		}
		// Flow-control on the delivery count so the timed region covers the
		// routing (and with sockets the writing) of every frame.
		await(seq * per)
	}
	dropped := br.EgressDropped()
	publish(20000) // fill the frame pool, the dedup ring and the scratch slices

	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	publish(b.N)
	b.StopTimer()
	if n := br.EgressDropped() - dropped; sockets && n != 0 {
		b.Fatalf("%d frames dropped by the broker's egress queues", n)
	}
}

// queueStates describes every client queue of br: its depth and who holds
// its write token.
func queueStates(br *Broker) string {
	br.mu.Lock()
	defer br.mu.Unlock()
	var sb strings.Builder
	for id, c := range br.clients {
		token := [...]string{"free", "held", "handed"}[c.out.token.Load()]
		fmt.Fprintf(&sb, "[%s depth=%d token=%s] ", id, c.out.depth(), token)
	}
	return sb.String()
}
