package broker

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"time"

	"narada/internal/event"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/obs"
	"narada/internal/transport"
)

// The tests here drive brokers over real loopback sockets, so publishes enter
// through realConn's buffered reader, RecvInto and the pooled ingress frame —
// the path simnet connections never take.

// realBroker starts a broker on loopback TCP/UDP.
func realBroker(t testing.TB, name string, mut func(*Config)) *Broker {
	t.Helper()
	node := transport.NewRealNode("127.0.0.1", nil)
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()
	cfg := Config{
		LogicalAddress: name,
		Sampler:        metrics.NewStaticSampler(metrics.Usage{TotalMemBytes: 1 << 30}),
	}
	if mut != nil {
		mut(&cfg)
	}
	br, err := New(node, ntp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := br.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(br.Close)
	return br
}

// linkReal links from → to and waits until both ends route over the link.
func linkReal(t testing.TB, from, to *Broker) {
	t.Helper()
	if err := from.LinkTo(to.StreamAddr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "link registered at both ends", func() bool {
		return containsString(from.Peers(), to.LogicalAddress()) &&
			containsString(to.Peers(), from.LogicalAddress())
	})
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// rawConn dials br over its own transport and speaks raw frames: no client
// pump, no decoding.
func rawConn(t testing.TB, br *Broker) transport.Conn {
	t.Helper()
	conn, err := br.node.Dial(br.StreamAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// rawSubscriber connects to br, subscribes and returns once the interest is
// in the routing table, so a publish sent afterwards cannot miss it.
func rawSubscriber(t testing.TB, br *Broker, pattern string) transport.Conn {
	t.Helper()
	conn := rawConn(t, br)
	if err := conn.Send(event.Encode(event.New(event.TypeSubscribe, pattern, nil))); err != nil {
		t.Fatal(err)
	}
	id := conn.LocalAddr() // the broker names a client by its remote address
	waitFor(t, "subscription "+pattern, func() bool {
		for _, p := range br.subs.Patterns(id) {
			if p == pattern {
				return true
			}
		}
		return false
	})
	return conn
}

func nextFrame(t testing.TB, conn transport.Conn) ([]byte, *event.Event) {
	t.Helper()
	frame, err := conn.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatalf("no delivery: %v", err)
	}
	ev, err := event.Decode(frame)
	if err != nil {
		t.Fatalf("delivered frame does not decode: %v", err)
	}
	return frame, ev
}

// publishEvent builds a publish the way an application would: named source,
// origin timestamp, application headers.
func publishEvent(topic, payload string) *event.Event {
	ev := event.New(event.TypePublish, topic, []byte(payload))
	ev.Source = "app-publisher"
	ev.Timestamp = time.Now().UTC()
	ev.SetHeader("content-type", "text/plain")
	ev.SetHeader("app-seq", "42")
	return ev
}

func sameEvent(t testing.TB, where string, got, want *event.Event) {
	t.Helper()
	if got.Type != want.Type || got.ID != want.ID || got.Topic != want.Topic ||
		got.Source != want.Source || !got.Timestamp.Equal(want.Timestamp) || got.TTL != want.TTL ||
		!reflect.DeepEqual(got.Headers, want.Headers) || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("%s: delivered event differs\n got  %+v\n want %+v", where, got, want)
	}
}

// TestPassThroughDeliversTheReceivedEvent: for an eligible publish a
// subscriber decodes exactly the event the publisher encoded — every field,
// application headers included — and in fact receives the very bytes. Behind
// one link the TTL is one lower, while a subscriber co-located with the
// forwarding broker still reads the original TTL: the hop was spent on the
// link's copy, not on the frame local subscribers share.
func TestPassThroughDeliversTheReceivedEvent(t *testing.T) {
	a := realBroker(t, "pt-a", nil)
	b := realBroker(t, "pt-b", nil)
	linkReal(t, b, a)
	local := rawSubscriber(t, a, "pt/**")
	remote := rawSubscriber(t, b, "pt/*")
	pub := rawConn(t, a)

	for i := 0; i < 50; i++ { // a burst: frames share reads, pooled buffers get recycled
		want := publishEvent("pt/x", fmt.Sprintf("payload-%d", i))
		sent := event.Encode(want)
		if err := pub.Send(sent); err != nil {
			t.Fatal(err)
		}
		frame, got := nextFrame(t, local)
		sameEvent(t, "local subscriber", got, want)
		if !bytes.Equal(frame, sent) {
			t.Fatalf("local subscriber received re-encoded bytes for an eligible publish")
		}
		_, got = nextFrame(t, remote)
		hop := *want
		hop.TTL = event.DefaultTTL - 1
		sameEvent(t, "subscriber behind the link", got, &hop)
	}
}

// TestPassThroughFloodingHopPatchesInPlace: with no local subscriber the
// forwarding broker spends the hop on the ingress frame itself; two hops on,
// the TTL has dropped by two and everything else is untouched.
func TestPassThroughFloodingHopPatchesInPlace(t *testing.T) {
	a := realBroker(t, "hop-a", nil)
	b := realBroker(t, "hop-b", nil)
	c := realBroker(t, "hop-c", nil)
	linkReal(t, b, a)
	linkReal(t, c, b)
	far := rawSubscriber(t, c, "hop/t")
	pub := rawConn(t, a)
	want := publishEvent("hop/t", "two hops")
	if err := pub.Send(event.Encode(want)); err != nil {
		t.Fatal(err)
	}
	_, got := nextFrame(t, far)
	want.TTL = event.DefaultTTL - 2
	sameEvent(t, "two hops away", got, want)
}

// TestPublishAdmissionEdges walks the cases around the
// admission rule's edges: the two a broker rewrites (no Source, picked by the
// sampler), the ones it rejects, and the ones that used to be rewritten and
// now pass through. Each rejected probe is followed by a sentinel on the same
// connection: TCP order and FIFO egress mean "the sentinel arrived first"
// proves the probe was dropped without waiting out a timeout.
func TestPublishAdmissionEdges(t *testing.T) {
	tracer := obs.NewTracer(obs.DefaultTraceCapacity, nil)
	sampleAll := func(cfg *Config) {
		cfg.PublishSampler = obs.NewSampler(1, 0)
		cfg.Tracer = tracer
	}
	sentinel := func(t *testing.T, pub transport.Conn, subs ...transport.Conn) {
		t.Helper()
		s := publishEvent("in/sentinel", "sentinel")
		if err := pub.Send(event.Encode(s)); err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			if _, got := nextFrame(t, sub); got.ID != s.ID {
				t.Fatalf("expected the sentinel next, got %s on %q (%q)", got.ID, got.Topic, got.Payload)
			}
		}
	}

	t.Run("empty source is stamped with the client id", func(t *testing.T) {
		a := realBroker(t, "in-src", nil)
		sub := rawSubscriber(t, a, "in/**")
		pub := rawConn(t, a)
		ev := publishEvent("in/x", "anonymous")
		ev.Source = ""
		if err := pub.Send(event.Encode(ev)); err != nil {
			t.Fatal(err)
		}
		_, got := nextFrame(t, sub)
		ev.Source = pub.LocalAddr()
		sameEvent(t, "stamped publish", got, ev)
	})

	t.Run("sampled publish carries msg headers and an incremented hop on the link", func(t *testing.T) {
		a := realBroker(t, "in-smp-a", sampleAll)
		b := realBroker(t, "in-smp-b", nil)
		linkReal(t, b, a)
		local := rawSubscriber(t, a, "in/**")
		remote := rawSubscriber(t, b, "in/**")
		pub := rawConn(t, a)
		ev := publishEvent("in/x", "traced")
		if err := pub.Send(event.Encode(ev)); err != nil {
			t.Fatal(err)
		}
		_, got := nextFrame(t, local)
		if origin, hop, ok := got.MsgTrace(); !ok || origin != "in-smp-a" || hop != 0 {
			t.Fatalf("local delivery: sampled=%v origin=%q hop=%d", ok, origin, hop)
		}
		if got.Header("app-seq") != "42" || got.TTL != event.DefaultTTL {
			t.Fatalf("local delivery lost application state: %+v", got)
		}
		_, got = nextFrame(t, remote)
		if origin, hop, ok := got.MsgTrace(); !ok || origin != "in-smp-a" || hop != 1 {
			t.Fatalf("link delivery: sampled=%v origin=%q hop=%d", ok, origin, hop)
		}
		if got.TTL != event.DefaultTTL-1 || got.Header("app-seq") != "42" {
			t.Fatalf("link delivery: TTL=%d headers=%v", got.TTL, got.Headers)
		}
		if a.cfg.PublishSampler.Seen() != 1 {
			t.Fatalf("sampler consulted %d times for one publish", a.cfg.PublishSampler.Seen())
		}
	})

	t.Run("sampler is consulted once per unsampled client publish, never for a link frame", func(t *testing.T) {
		a := realBroker(t, "in-rate-a", func(cfg *Config) { cfg.PublishSampler = obs.NewSampler(4, 0) })
		b := realBroker(t, "in-rate-b", func(cfg *Config) { cfg.PublishSampler = obs.NewSampler(1, 0) })
		linkReal(t, b, a)
		sub := rawSubscriber(t, a, "in/**")
		remote := rawSubscriber(t, b, "in/**")
		pub := rawConn(t, a)
		sampled, remoteSampled := 0, 0
		for i := 0; i < 45; i++ {
			ev := publishEvent("in/x", strconv.Itoa(i))
			if i%5 == 0 {
				ev.Source = "" // stamping must not cost a second consultation
			}
			if i >= 40 {
				ev.SetMsgTrace("publisher", 0) // a verdict already made is never re-decided
			}
			if err := pub.Send(event.Encode(ev)); err != nil {
				t.Fatal(err)
			}
			if _, got := nextFrame(t, sub); got.MsgSampled() {
				sampled++
			}
			if _, got := nextFrame(t, remote); got.MsgSampled() {
				remoteSampled++
			}
		}
		if seen := a.cfg.PublishSampler.Seen(); seen != 40 || sampled != 10+5 {
			t.Fatalf("1-in-4 sampler over 40 undecided publishes (+5 pre-sampled): consulted %d times, %d delivered sampled", seen, sampled)
		}
		if seen := b.cfg.PublishSampler.Seen(); seen != 0 || remoteSampled != sampled {
			t.Fatalf("link side: its sample-everything sampler was consulted %d times, %d of %d verdicts arrived", seen, remoteSampled, sampled)
		}
	})

	t.Run("publisher-sampled publish passes through; the link copy advances msg-hop", func(t *testing.T) {
		a := realBroker(t, "in-pre-a", func(cfg *Config) { cfg.Tracer = tracer })
		b := realBroker(t, "in-pre-b", nil)
		linkReal(t, b, a)
		local := rawSubscriber(t, a, "in/**")
		remote := rawSubscriber(t, b, "in/**")
		pub := rawConn(t, a)
		ev := publishEvent("in/x", "traced by its publisher")
		ev.SetMsgTrace("publisher", 0)
		sent := event.Encode(ev)
		if err := pub.Send(sent); err != nil {
			t.Fatal(err)
		}
		if frame, _ := nextFrame(t, local); !bytes.Equal(frame, sent) {
			t.Fatal("co-located subscriber did not receive the bytes the publisher sent")
		}
		_, got := nextFrame(t, remote)
		if origin, hop, ok := got.MsgTrace(); !ok || origin != "publisher" || hop != 1 {
			t.Fatalf("link delivery: sampled=%v origin=%q hop=%d", ok, origin, hop)
		}
		want := *ev
		want.TTL = event.DefaultTTL - 1
		want.Headers = map[string]string{"content-type": "text/plain", "app-seq": "42",
			event.HeaderMsgSampled: "1", event.HeaderMsgOrigin: "publisher", event.HeaderMsgHop: "1"}
		sameEvent(t, "subscriber behind the link", got, &want)
	})

	t.Run("replay capacity does not cost the pass-through", func(t *testing.T) {
		a := realBroker(t, "in-replay-pt", func(cfg *Config) { cfg.ReplayCapacity = 8 })
		sub := rawSubscriber(t, a, "in/**")
		pub := rawConn(t, a)
		sent := event.Encode(publishEvent("in/x", "retained and delivered"))
		if err := pub.Send(sent); err != nil {
			t.Fatal(err)
		}
		if frame, _ := nextFrame(t, sub); !bytes.Equal(frame, sent) {
			t.Fatal("subscriber received re-encoded bytes because replay history is on")
		}
	})

	t.Run("replayed frame carries the TTL that arrived, though the live copy was hop-patched in place", func(t *testing.T) {
		a := realBroker(t, "in-replay-a", func(cfg *Config) { cfg.ReplayCapacity = 8 })
		b := realBroker(t, "in-replay-b", nil)
		linkReal(t, b, a)
		remote := rawSubscriber(t, b, "in/**") // a has no local subscriber: the hop is spent on the ingress frame
		pub := rawConn(t, a)
		sent := event.Encode(publishEvent("in/x", "missed by the late joiner"))
		if err := pub.Send(sent); err != nil {
			t.Fatal(err)
		}
		if _, got := nextFrame(t, remote); got.TTL != event.DefaultTTL-1 {
			t.Fatalf("link delivery TTL = %d, want %d", got.TTL, event.DefaultTTL-1)
		}
		late := rawConn(t, a)
		ask := event.New(event.TypeControl, "in/*", nil)
		ask.SetHeader(controlOpHeader, opReplay)
		if err := late.Send(event.Encode(ask)); err != nil {
			t.Fatal(err)
		}
		if frame, _ := nextFrame(t, late); !bytes.Equal(frame, sent) {
			t.Fatal("replayed frame differs from the frame that arrived")
		}
	})

	t.Run("replay history still replays", func(t *testing.T) {
		a := realBroker(t, "in-replay", func(cfg *Config) { cfg.ReplayCapacity = 8 })
		pub := rawConn(t, a)
		ev := publishEvent("in/replayed", "missed")
		if err := pub.Send(event.Encode(ev)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "event retained", func() bool { stored, _ := a.history.Stats(); return stored == 1 })
		late, err := Connect(transport.NewRealNode("127.0.0.1", nil), a.StreamAddr(), "late-joiner")
		if err != nil {
			t.Fatal(err)
		}
		defer late.Close()
		if err := late.RequestReplay("in/*", 0); err != nil {
			t.Fatal(err)
		}
		got, err := late.Next(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		sameEvent(t, "replayed event", got, ev)
	})

	t.Run("TTL 0 is delivered locally and not forwarded", func(t *testing.T) {
		a := realBroker(t, "in-ttl-a", nil)
		b := realBroker(t, "in-ttl-b", nil)
		linkReal(t, b, a)
		local := rawSubscriber(t, a, "in/**")
		remote := rawSubscriber(t, b, "in/**")
		pub := rawConn(t, a)
		ev := publishEvent("in/x", "last hop")
		ev.TTL = 0
		if err := pub.Send(event.Encode(ev)); err != nil {
			t.Fatal(err)
		}
		_, got := nextFrame(t, local)
		sameEvent(t, "TTL-0 local delivery", got, ev)
		sentinel(t, pub, local, remote)
	})

	t.Run("duplicate id, invalid topic and malformed frame are dropped; the session survives", func(t *testing.T) {
		a := realBroker(t, "in-drop", nil)
		sub := rawSubscriber(t, a, "in/**")
		pub := rawConn(t, a)
		ev := publishEvent("in/x", "once")
		frame := event.Encode(ev)
		for i := 0; i < 2; i++ {
			if err := pub.Send(frame); err != nil {
				t.Fatal(err)
			}
		}
		if _, got := nextFrame(t, sub); got.ID != ev.ID {
			t.Fatalf("first copy not delivered")
		}
		sentinel(t, pub, sub) // the duplicate was suppressed

		for _, topic := range []string{"in//x", "in/*", ""} {
			if err := pub.Send(event.Encode(publishEvent(topic, "bad topic"))); err != nil {
				t.Fatal(err)
			}
		}
		sentinel(t, pub, sub)

		before := a.tel.framesMalformed.Value()
		if err := pub.Send(frame[:len(frame)-3]); err != nil {
			t.Fatal(err)
		}
		if err := pub.Send([]byte{}); err != nil {
			t.Fatal(err)
		}
		sentinel(t, pub, sub)
		if got := a.tel.framesMalformed.Value() - before; got != 2 {
			t.Fatalf("narada_broker_frames_malformed_total moved by %d, want 2", got)
		}
	})
}
