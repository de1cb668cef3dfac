package broker

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"narada/internal/event"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/obs"
	"narada/internal/simnet"
	"narada/internal/transport"
)

// nopConn is a transport.Conn that discards every frame, so the fan-out
// benchmark measures the broker's own publish pipeline (matching, locking,
// encoding, queueing) rather than a peer's consumption speed.
type nopConn struct{}

func (nopConn) Send([]byte) error                         { return nil }
func (nopConn) Recv() ([]byte, error)                     { select {} }
func (nopConn) RecvTimeout(time.Duration) ([]byte, error) { return nil, transport.ErrTimeout }
func (nopConn) LocalAddr() string                         { return "bench/nop:0" }
func (nopConn) RemoteAddr() string                        { return "bench/nop:0" }
func (nopConn) Close() error                              { return nil }

// newFanoutBroker builds an unstarted broker suitable for driving
// publishEvent directly. mut, when non-nil, adjusts the config before New.
func newFanoutBroker(b testing.TB, mut func(*Config)) *Broker {
	b.Helper()
	net := simnet.NewPaperWAN(simnet.Config{Scale: 20000, Seed: 1})
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
// broker's client table, with a running egress writer like a real session.
func addBenchClient(br *Broker, id string) *clientConn {
	c := &clientConn{id: id, conn: nopConn{}}
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
// application publish in the substrate.
func BenchmarkPublishFanout(b *testing.B) {
	br := newFanoutBroker(b, nil)
	subscribeFanout(b, br)

	payload := make([]byte, 256)
	ev := event.New(event.TypePublish, "bench/fan/topic", payload)
	ev.Source = "fan"

	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Encode and route, without admission: the scope this benchmark's
		// recorded trajectory (BENCH_fanout.json) has always had.
		if v, f, ok := br.frameEvent(ev); ok {
			br.fanOut(&v, f, "")
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

// subscribeFanout registers the benchmark's 64-subscriber interest mix.
func subscribeFanout(b testing.TB, br *Broker) {
	b.Helper()
	const subscribers = 64
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
	}
}

// BenchmarkPublishFanoutSampled measures the fan-out with message-path
// sampling active: a 1-in-1024 sampler and a live tracer, the production
// shape. Sampled iterations pay for header stamping, trace-id formatting and
// span recording; amortised over the sampling interval the path must stay at
// 0 allocs/op (the bench gate checks allocations only — wall time belongs to
// the unsampled benchmark above).
func BenchmarkPublishFanoutSampled(b *testing.B) {
	tracer := obs.NewTracer(obs.DefaultTraceCapacity, nil)
	br := newFanoutBroker(b, func(cfg *Config) {
		cfg.PublishSampler = obs.NewSampler(1024, 0)
		cfg.Tracer = tracer
	})
	subscribeFanout(b, br)

	payload := make([]byte, 256)
	ev := event.New(event.TypePublish, "bench/fan/topic", payload)
	ev.Source = "fan"
	ev.Timestamp = br.now()

	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		freshID(ev)
		br.publishEvent(ev, "")
	}
}

// BenchmarkIngressToEgress measures what a publish really pays inside the
// broker: pre-encoded frames written to a real loopback connection, received
// by serveClient into pooled frames, parsed in place, deduplicated, matched
// and handed by reference to 4 or 64 subscriber egress queues. Subscribers
// are discard-everything queues and the publisher reuses one batch of frames
// (patching a fresh event id into each), so every allocation the benchmark
// reports is made on the broker's side of the socket — and in steady state
// there must be none (the bench gate holds it at 0 allocs/op).
func BenchmarkIngressToEgress(b *testing.B) {
	for _, subs := range []int{4, 64} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) { benchIngressToEgress(b, subs) })
	}
}

func benchIngressToEgress(b *testing.B, subs int) {
	br := realBroker(b, "ingress", nil)
	for i := 0; i < subs; i++ {
		id := fmt.Sprintf("sub-%d", i)
		c := addBenchClient(br, id)
		if _, err := br.subs.SubscribeValue(id, "bench/ingress/topic", c.out); err != nil {
			b.Fatal(err)
		}
	}
	pub := rawConn(b, br).(transport.BatchSender)

	const batch = 32 // frames per vectored write, as an egress flush would coalesce
	payload := make([]byte, 256)
	frames := make([][]byte, batch)
	idOff := make([]int, batch)
	for i := range frames {
		ev := event.New(event.TypePublish, "bench/ingress/topic", payload)
		ev.Source = "bench-publisher"
		frames[i] = event.Encode(ev)
		idOff[i] = bytes.Index(frames[i], ev.ID[:])
	}
	var seq uint64
	publish := func(n int) {
		for sent := 0; sent < n; sent += batch {
			k := min(batch, n-sent)
			for i := 0; i < k; i++ {
				seq++
				binary.BigEndian.PutUint64(frames[i][idOff[i]:], seq) // a fresh id: no dedup hit
			}
			if err := pub.SendBatch(frames[:k]); err != nil {
				b.Fatal(err)
			}
		}
		// Flow-control on the broker's own delivery count so the timed region
		// covers the routing of every frame, not just the writes.
		for br.tel.deliveredLocal.Value() < seq*uint64(subs) {
			runtime.Gosched()
		}
	}
	publish(20000) // fill the frame pool, the dedup ring and the scratch slices

	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	publish(b.N)
	b.StopTimer()
}
