package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"narada/internal/broker"
	"narada/internal/core"
	"narada/internal/dedup"
	"narada/internal/event"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/topics"
	"narada/internal/transport"
	"narada/internal/uuid"
	"narada/internal/wal"
)

// Layer replay: the traced run feeds a workload's first generated inputs
// through the same sequence of public calls a publish makes inside the
// program, in this process and on one goroutine, with one span per call.
// Layers are measured from outside — no hook or counter is added to the
// program.
const (
	replayOps   = 20000     // inputs replayed ...
	replayBytes = 128 << 20 // ... or fewer, so that large payloads stay within this
	spanOps     = 1000      // operations whose spans go to the trace file
	allocOps    = 300       // operations of the allocation pass (two ReadMemStats per call)
	burst       = 128       // broker.Publish calls between drains of the subscribers
)

// stage is one call into a layer.
type stage struct {
	name string
	fn   func() error
}

// layers collects, per layer call name, the duration of every call and the
// allocations of the calls of the allocation pass.
type layers struct {
	clock int64 // cost of the one time.Now every measured interval contains
	ns    map[string][]int64
	alloc map[string]*allocAcc
}

type allocAcc struct{ calls, objs, bytes uint64 }

func newLayers() *layers {
	const n = 200000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Now()
	}
	return &layers{clock: int64(time.Since(t0)) / n, ns: map[string][]int64{}, alloc: map[string]*allocAcc{}}
}

// run executes the stages in order, n times. The timing pass takes one
// timestamp between stages, so the spans of an operation are contiguous and
// its root span is exactly their sum; the first spanOps operations are
// recorded when rec is set. The allocation pass repeats the first operations
// with the allocator's counters read around every call.
func (l *layers) run(stages []stage, n int, prep func(i int) string, rec *recorder) error {
	ts := make([]int64, len(stages)+1)
	for i := 0; i < n; i++ {
		op := prep(i)
		ts[0] = mono(time.Now())
		for k, st := range stages {
			if err := st.fn(); err != nil {
				return fmt.Errorf("replay: %s: %w", st.name, err)
			}
			ts[k+1] = mono(time.Now())
		}
		for k, st := range stages {
			l.ns[st.name] = append(l.ns[st.name], ts[k+1]-ts[k])
		}
		if rec != nil && i < spanOps {
			root := rec.add(0, op, "op", ts[0], ts[len(stages)])
			for k, st := range stages {
				rec.add(root, op, st.name, ts[k], ts[k+1])
			}
		}
	}
	var m0, m1 runtime.MemStats
	for i := n; i < n+allocOps; i++ {
		prep(i)
		for _, st := range stages {
			runtime.ReadMemStats(&m0)
			if err := st.fn(); err != nil {
				return fmt.Errorf("replay: %s: %w", st.name, err)
			}
			runtime.ReadMemStats(&m1)
			a := l.alloc[st.name]
			if a == nil {
				a = &allocAcc{}
				l.alloc[st.name] = a
			}
			a.calls++
			a.objs += m1.Mallocs - m0.Mallocs
			a.bytes += m1.TotalAlloc - m0.TotalAlloc
		}
	}
	return nil
}

// one measures a single call by name.
func (l *layers) one(name string, n int, fn func(i int) error) error {
	i := 0
	return l.run([]stage{{name, func() error { return fn(i) }}}, n, func(k int) string { i = k; return "" }, nil)
}

// nsMedian is the median duration of the calls, less the clock's own cost.
func (l *layers) nsMedian(name string) float64 {
	d := l.ns[name]
	if len(d) == 0 {
		return 0
	}
	s := sortedCopy(d)
	v := percentile(s, 0.5) - l.clock
	if v < 0 {
		v = 0
	}
	return float64(v)
}

func (l *layers) allocs(name string) (objs, bytes float64) {
	a := l.alloc[name]
	if a == nil || a.calls == 0 {
		return 0, 0
	}
	return float64(a.objs) / float64(a.calls), float64(a.bytes) / float64(a.calls)
}

// pair is a loopback connection seen from both ends.
type pair struct{ a, b transport.Conn }

func (p pair) close() {
	_ = p.a.Close()
	_ = p.b.Close()
}

func newPair(node *transport.RealNode) (pair, error) {
	l, err := node.Listen(0)
	if err != nil {
		return pair{}, err
	}
	defer l.Close() //nolint:errcheck
	type accepted struct {
		c   transport.Conn
		err error
	}
	ch := make(chan accepted, 1) // one send, so the acceptor never blocks
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	a, err := node.Dial(l.Addr())
	if err != nil {
		return pair{}, err
	}
	acc := <-ch
	if acc.err != nil {
		_ = a.Close()
		return pair{}, acc.err
	}
	return pair{a, acc.c}, nil
}

// replayTable builds the subscription table of the workload's last hop: the
// verifying subscriber and the sinks on the workload's pattern, plus the
// ballast.
func replayTable(w *workload, in *inputs) (*topics.Table, error) {
	t := topics.NewTable()
	for i := 0; i <= w.Sinks; i++ {
		if err := t.Subscribe("sub-"+strconv.Itoa(i), in.pattern); err != nil {
			return nil, err
		}
	}
	for _, p := range in.ballast {
		if err := t.Subscribe("ballast", p); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// replayPublish runs the publish path's layers for the workload's message
// shape: publisher encode and send, then per broker hop recv, decode, dedup,
// match, re-encode and batch send, then the subscriber's recv and decode.
func replayPublish(w *workload, in *inputs, l *layers, rec *recorder) error {
	node := transport.NewRealNode("127.0.0.1", nil)
	hops := 1
	if w.Chain {
		hops = 2
	}
	pairs := make([]pair, hops+1) // pairs[h] feeds hop h; the last feeds the subscriber
	for i := range pairs {
		p, err := newPair(node)
		if err != nil {
			return err
		}
		defer p.close()
		pairs[i] = p
	}
	last, err := replayTable(w, in)
	if err != nil {
		return err
	}

	var (
		seq     uint64
		payload = make([]byte, w.Payload)
		frame   []byte
		got     []byte
		ev      *event.Event
		matched int
		batch   = make([][]byte, 1)
		visit   = func(string, any) { matched++ }
	)
	stages := []stage{
		{"event.encode", func() error {
			e := event.New(event.TypePublish, in.topic(seq), payload)
			e.Source = "bench-pub"
			e.Timestamp = time.Now()
			frame = event.Encode(e)
			return nil
		}},
		{"transport.send", func() error { return pairs[0].a.Send(frame) }},
	}
	for h := 0; h < hops; h++ {
		h := h
		cache := dedup.New(4 * dedup.DefaultCapacity) // the broker's event cache size
		table := topics.NewTable()                    // flooding hops before the last hold no subscribers
		want := 0
		if h == hops-1 {
			table, want = last, w.Sinks+1
		}
		var sc topics.Scratch
		out, ok := pairs[h+1].a.(transport.BatchSender)
		if !ok {
			return fmt.Errorf("replay: transport connections no longer batch")
		}
		stages = append(stages,
			stage{"transport.recv", func() (err error) { got, err = pairs[h].b.Recv(); return }},
			stage{"event.decode", func() (err error) { ev, err = event.Decode(got); return }},
			stage{"dedup.seen", func() error {
				if cache.Seen(ev.ID) {
					return fmt.Errorf("fresh id reported as seen")
				}
				return nil
			}},
			stage{"topics.match", func() error {
				matched = 0
				table.MatchEachUnique(ev.Topic, &sc, visit)
				if matched != want {
					return fmt.Errorf("hop %d matched %d subscribers, want %d", h, matched, want)
				}
				return nil
			}},
			stage{"event.encode", func() error {
				fwd := *ev
				if h < hops-1 {
					fwd.TTL-- // a link hop
				}
				frame = event.Encode(&fwd)
				return nil
			}},
			stage{"transport.send_batch", func() error { batch[0] = frame; return out.SendBatch(batch) }},
		)
	}
	stages = append(stages,
		stage{"transport.recv", func() (err error) { got, err = pairs[hops].b.Recv(); return }},
		stage{"event.decode", func() error {
			e, err := event.Decode(got)
			if err != nil {
				return err
			}
			if s, ok := checkPayload(e.Payload); !ok || s != seq || e.TTL != event.DefaultTTL-uint8(hops-1) {
				return fmt.Errorf("event %d came out of the replay damaged", seq)
			}
			return nil
		}},
	)

	n := replayOps
	if max := replayBytes / w.Payload; n > max {
		n = max
	}
	prep := func(i int) string {
		seq = uint64(i)
		in.fill(payload, seq)
		return strconv.Itoa(i)
	}
	if err := l.run(stages, n, prep, rec); err != nil {
		return err
	}

	// Batch send, 16 frames per vectored write; a goroutine drains the far
	// end, since 16 large frames can exceed what the socket buffers.
	frames := make([][]byte, 16)
	for i := range frames {
		prep(i)
		frames[i] = event.Encode(event.New(event.TypePublish, in.topic(seq), payload))
	}
	const batches = 500
	drained := make(chan error, 1) // one send, so the drainer never blocks
	go func() {
		for i := 0; i < (batches+allocOps)*len(frames); i++ {
			if _, err := pairs[0].b.Recv(); err != nil {
				drained <- err
				return
			}
		}
		drained <- nil
	}()
	out := pairs[0].a.(transport.BatchSender)
	if err := l.one("transport.send_batch16", batches, func(int) error { return out.SendBatch(frames) }); err != nil {
		return err
	}
	if err := <-drained; err != nil {
		return err
	}

	// Table writes, against the table the matcher just used.
	var pattern string
	return l.run([]stage{
		{"topics.subscribe", func() error { return last.Subscribe("churner", pattern) }},
		{"topics.unsubscribe", func() error {
			if !last.Unsubscribe("churner", pattern) {
				return fmt.Errorf("pattern %q was not subscribed", pattern)
			}
			return nil
		}},
	}, replayOps/4, func(i int) string {
		pattern = "bench/c/" + strconv.Itoa(i%16) + "/" + strconv.Itoa(i/16%16) + "/replay" + strconv.Itoa(i)
		return ""
	}, nil)
}

// replayBroker times (*Broker).Publish on an in-process broker whose
// subscribers — the workload's — sit on real loopback connections. The
// subscribers are drained between bursts, on this goroutine, so that the
// allocation counts are the broker's alone.
func replayBroker(w *workload, in *inputs, l *layers) error {
	node := transport.NewRealNode("127.0.0.1", nil)
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()
	b, err := broker.New(node, ntp, broker.Config{
		LogicalAddress: "bench-replay",
		Sampler:        metrics.NewStaticSampler(metrics.Usage{}),
	})
	if err != nil {
		return err
	}
	if err := b.Start(); err != nil {
		return err
	}
	defer b.Close()

	var subs []transport.Conn
	defer func() {
		for _, c := range subs {
			_ = c.Close()
		}
	}()
	payload := make([]byte, w.Payload)
	for i := 0; i <= w.Sinks; i++ {
		c, err := node.Dial(b.StreamAddr())
		if err != nil {
			return err
		}
		subs = append(subs, c)
		patterns := []string{in.pattern}
		if i == 0 {
			patterns = append(patterns, in.ballast...)
		}
		for _, p := range patterns {
			if err := sendControl(c, event.TypeSubscribe, p); err != nil {
				return err
			}
		}
		// Publish until the subscription delivers: it is then live.
		for {
			if err := b.Publish(in.topic(0), payload); err != nil {
				return err
			}
			if _, err := c.RecvTimeout(20 * time.Millisecond); err == nil {
				break
			} else if err != transport.ErrTimeout {
				return err
			}
		}
	}
	// Earlier subscribers also received the later probes; empty them.
	for _, c := range subs {
		for {
			if _, err := c.RecvTimeout(50 * time.Millisecond); err != nil {
				break
			}
		}
	}

	drain := func() error {
		for _, c := range subs {
			for i := 0; i < burst; i++ {
				if _, err := c.Recv(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	n := replayOps / 4
	if max := replayBytes / 4 / w.Payload; n > max {
		n = max
	}
	n -= n % burst
	// Draining happens in prep, outside the measured call; the allocation
	// pass continues the count, so bursts stay aligned.
	var seq uint64
	var drainErr error
	return l.run([]stage{{"broker.publish", func() error {
		if drainErr != nil {
			return drainErr
		}
		return b.Publish(in.topic(seq), payload)
	}}}, n-allocOps, func(i int) string {
		seq = uint64(i)
		in.fill(payload, seq)
		if i > 0 && i%burst == 0 {
			drainErr = drain()
		}
		return ""
	}, nil)
}

// replayDatagram times one datagram from Send to RecvTimeout between two
// packet endpoints, at the size of a discovery response.
func replayDatagram(l *layers) error {
	node := transport.NewRealNode("127.0.0.1", nil)
	a, err := node.ListenPacket(0)
	if err != nil {
		return err
	}
	defer a.Close() //nolint:errcheck
	b, err := node.ListenPacket(0)
	if err != nil {
		return err
	}
	defer b.Close() //nolint:errcheck
	msg := event.Encode(event.New(event.TypeDiscoveryResponse, "", sampleResponse()))
	return l.one("transport.udp", replayOps/2, func(int) error {
		if err := a.Send(b.LocalAddr(), msg); err != nil {
			return err
		}
		_, _, err := b.RecvTimeout(time.Second)
		return err
	})
}

func sampleResponse() []byte {
	return core.EncodeDiscoveryResponse(&core.DiscoveryResponse{
		RequestID: uuid.New(),
		Timestamp: time.Now(),
		Broker: core.BrokerInfo{
			LogicalAddress: "broker-0", Hostname: "bench-host", Realm: "bench",
			Endpoints: []core.TransportEndpoint{
				{Protocol: "tcp", Address: "127.0.0.1:40001"},
				{Protocol: "udp", Address: "127.0.0.1:40002"},
			},
		},
		Usage: metrics.Usage{TotalMemBytes: 1 << 30, UsedMemBytes: 1 << 28, Links: 5, CPULoad: 0.25},
	})
}

// replayCore times the discovery codec and the shortlist on their own.
func replayCore(l *layers, seed int64) error {
	req := &core.DiscoveryRequest{
		ID: uuid.New(), Requester: "bench-req-0", Realm: "bench",
		ResponseAddr: "127.0.0.1:40003", Protocols: []string{"tcp", "udp"}, IssuedAt: time.Now(),
	}
	if err := l.one("core.encode_request", replayOps, func(int) error {
		if len(core.EncodeDiscoveryRequest(req)) == 0 {
			return fmt.Errorf("empty request")
		}
		return nil
	}); err != nil {
		return err
	}
	body := sampleResponse()
	if err := l.one("core.decode_response", replayOps, func(int) error {
		_, err := core.DecodeDiscoveryResponse(body)
		return err
	}); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	resp, err := core.DecodeDiscoveryResponse(body)
	if err != nil {
		return err
	}
	for _, size := range []int{6, 100} {
		cands := make([]core.Candidate, size)
		for i := range cands {
			r := *resp
			r.Usage.Links = rng.Intn(50)
			r.Usage.CPULoad = rng.Float64()
			cands[i] = core.Candidate{Response: &r, EstLatency: time.Duration(rng.Intn(5000)) * time.Microsecond}
		}
		cfg := core.DefaultSelectionConfig()
		name := "core.shortlist_" + strconv.Itoa(size)
		if err := l.one(name, replayOps/4, func(int) error {
			if got := core.Shortlist(cands, cfg); len(got) == 0 {
				return fmt.Errorf("empty shortlist")
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// replayWAL times Log.Append of 128-byte records under the interval fsync
// policy, the BDN's configuration in discover_loopback.
func replayWAL(root string, l *layers) error {
	base := filepath.Join(root, buildDir, "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck
	log, _, _, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncInterval})
	if err != nil {
		return err
	}
	rec := make([]byte, 128)
	err = l.one("wal.append", replayOps, func(int) error {
		_, err := log.Append(rec)
		return err
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayMetrics runs every replay and renders the per-layer metrics the
// replay is the source of.
func replayMetrics(root string, w *workload, in *inputs, seed int64, rec *recorder) (map[string]metric, error) {
	l := newLayers()
	for _, step := range []func() error{
		func() error { return replayPublish(w, in, l, rec) },
		func() error { return replayBroker(w, in, l) },
		func() error { return replayDatagram(l) },
		func() error { return replayCore(l, seed) },
		func() error { return replayWAL(root, l) },
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	m := map[string]metric{}
	ns := func(metricName, layer string) { m[metricName] = metric{l.nsMedian(layer), "ns"} }
	ns("transport.send_ns", "transport.send")
	ns("transport.recv_ns", "transport.recv")
	ns("transport.udp_rtt_ns", "transport.udp")
	ns("event.encode_ns", "event.encode")
	ns("event.decode_ns", "event.decode")
	ns("dedup.seen_ns", "dedup.seen")
	ns("topics.match_ns", "topics.match")
	ns("topics.subscribe_ns", "topics.subscribe")
	ns("topics.unsubscribe_ns", "topics.unsubscribe")
	ns("broker.publish_ns", "broker.publish")
	ns("core.encode_request_ns", "core.encode_request")
	ns("core.decode_response_ns", "core.decode_response")
	ns("core.shortlist_6_ns", "core.shortlist_6")
	ns("core.shortlist_100_ns", "core.shortlist_100")
	ns("wal.append_ns", "wal.append")
	m["transport.send_batch_ns_per_frame"] = metric{l.nsMedian("transport.send_batch16") / 16, "ns"}
	objs := func(metricName, layer string) { o, _ := l.allocs(layer); m[metricName] = metric{o, "allocs/op"} }
	bytes := func(metricName, layer string) { _, b := l.allocs(layer); m[metricName] = metric{b, "B/op"} }
	objs("transport.recv_allocs", "transport.recv")
	bytes("transport.recv_bytes_alloc", "transport.recv")
	bytes("transport.udp_recv_bytes_alloc", "transport.udp")
	objs("event.encode_allocs", "event.encode")
	objs("event.decode_allocs", "event.decode")
	bytes("event.decode_bytes_alloc", "event.decode")
	objs("broker.publish_allocs", "broker.publish")
	objs("wal.append_allocs", "wal.append")
	m["bench.replay_clock_ns"] = metric{float64(l.clock), "ns"}
	return m, nil
}

// layerShares renders the recorded operations' self time per layer as a
// share of the root spans, largest first, for the human-readable block.
func layerShares(rec *recorder) []string {
	self := rec.selfTimes()
	var total int64
	names := make([]string, 0, len(self))
	for n, v := range self {
		total += v
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var out []string
	for _, n := range names {
		out = append(out, fmt.Sprintf("  self time %-24s %6.2f %%", n, 100*float64(self[n])/float64(total)))
	}
	return out
}
