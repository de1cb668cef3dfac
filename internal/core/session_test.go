package core

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"narada/internal/event"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/transport"
	"narada/internal/uuid"
)

// reply is one thing the scripted BDN side does after a request frame: write
// a frame, or fail the requester's next receive with err.
type reply struct {
	frame []byte
	err   error
}

// scriptedSession is a transport.Conn whose far side is a script: the n-th
// frame sent on it is shown to onSend, which returns what the BDN writes back
// because of it. A receive with nothing left to read waits out its timeout on
// the manual clock.
type scriptedSession struct {
	transport.Conn // the methods a requester session must not touch
	clock          *manualClock
	onSend         func(n int, frame []byte) []reply
	sent           [][]byte
	inbox          []reply
	closed         bool
}

func (c *scriptedSession) Send(frame []byte) error {
	if c.closed {
		return transport.ErrClosed
	}
	c.inbox = append(c.inbox, c.onSend(len(c.sent), frame)...)
	c.sent = append(c.sent, frame)
	return nil
}

func (c *scriptedSession) RecvTimeout(d time.Duration) ([]byte, error) {
	if len(c.inbox) == 0 {
		c.clock.Sleep(d)
		return nil, transport.ErrTimeout
	}
	next := c.inbox[0]
	c.inbox = c.inbox[1:]
	return next.frame, next.err
}

func (c *scriptedSession) Close() error { c.closed = true; return nil }

// scriptNode hands out scripted sessions, per address in dial order, and
// remembers every dial. An address with no session left refuses.
type scriptNode struct {
	transport.Node
	clock    *manualClock
	sessions map[string][]*scriptedSession
	endpoint transport.PacketConn
	dials    []string
}

func (n *scriptNode) Clock() ntptime.Clock { return n.clock }

func (n *scriptNode) Dial(addr string) (transport.Conn, error) {
	n.dials = append(n.dials, addr)
	q := n.sessions[addr]
	if len(q) == 0 {
		return nil, transport.ErrClosed
	}
	n.sessions[addr] = q[1:]
	return q[0], nil
}

func (n *scriptNode) ListenPacket(int) (transport.PacketConn, error) { return n.endpoint, nil }

// ackOf answers a request frame the way a BDN named bdn would.
func ackOf(frame []byte, bdn string) reply {
	ev, err := event.Decode(frame)
	if err != nil {
		panic(err)
	}
	req, err := DecodeDiscoveryRequest(ev.Payload)
	if err != nil {
		panic(err)
	}
	return ackFor(req.ID, bdn)
}

func ackFor(id uuid.UUID, bdn string) reply {
	return reply{frame: event.Encode(event.New(event.TypeDiscoveryAck, "", EncodeAck(&Ack{RequestID: id, BDN: bdn})))}
}

// TestNonAckFrameIsSkippedNotRetransmitted pins the rules of the requester's
// BDN session. Every case first runs one acknowledged request on the session
// to "bdn-1" where it says warm, then issues the request under test.
func TestNonAckFrameIsSkippedNotRetransmitted(t *testing.T) {
	const ackTimeout = time.Second
	acks := func(bdn string) func(int, []byte) []reply {
		return func(_ int, f []byte) []reply { return []reply{ackOf(f, bdn)} }
	}
	silent := func(int, []byte) []reply { return nil }
	// afterWarmUp scripts a session's second request onwards; its first is
	// the warm-up and is acknowledged.
	afterWarmUp := func(rest func(n int, f []byte) []reply) func(int, []byte) []reply {
		return func(n int, f []byte) []reply {
			if n == 0 {
				return []reply{ackOf(f, "warm-up")}
			}
			return rest(n-1, f)
		}
	}
	cases := []struct {
		name     string
		warm     bool
		sessions map[string][]func(int, []byte) []reply // per address, in dial order
		addrs    []string

		wantBDN         string
		wantErr         error
		wantRetransmits int
		wantDials       []string         // by the request under test
		wantSends       map[string][]int // request frames per session, in dial order
		wantSpent       time.Duration
		wantSessionTo   string // where the standing session points afterwards
	}{
		{
			name: "a stale ack and garbage before the ack are skipped",
			sessions: map[string][]func(int, []byte) []reply{"bdn-1": {
				func(_ int, f []byte) []reply {
					return []reply{ackFor(uuid.New(), "stale"), {frame: []byte("garbage")}, ackOf(f, "right")}
				},
			}},
			addrs:   []string{"bdn-1"},
			wantBDN: "right", wantDials: []string{"bdn-1"},
			wantSends: map[string][]int{"bdn-1": {1}}, wantSessionTo: "bdn-1",
		},
		{
			name: "a reused session closed by the BDN costs one redial", warm: true,
			sessions: map[string][]func(int, []byte) []reply{"bdn-1": {
				afterWarmUp(func(int, []byte) []reply { return []reply{{err: transport.ErrClosed}} }),
				acks("fresh"),
			}},
			addrs:   []string{"bdn-1"},
			wantBDN: "fresh", wantDials: []string{"bdn-1"},
			wantSends: map[string][]int{"bdn-1": {1, 1}}, wantSessionTo: "bdn-1",
		},
		{
			name: "a reused session silent for AckTimeout is redialled before the retransmission", warm: true,
			sessions: map[string][]func(int, []byte) []reply{"bdn-1": {
				afterWarmUp(silent),
				acks("fresh"),
			}},
			addrs:   []string{"bdn-1"},
			wantBDN: "fresh", wantRetransmits: 1, wantDials: []string{"bdn-1"},
			wantSends: map[string][]int{"bdn-1": {1, 1}}, wantSpent: ackTimeout, wantSessionTo: "bdn-1",
		},
		{
			name: "a silently dead BDN fails over as fast warm as cold", warm: true,
			sessions: map[string][]func(int, []byte) []reply{
				"bdn-1": {afterWarmUp(silent), silent},
				"bdn-2": {acks("second")},
			},
			addrs:   []string{"bdn-1", "bdn-2"},
			wantBDN: "second", wantRetransmits: 2, wantDials: []string{"bdn-1", "bdn-2"},
			wantSends: map[string][]int{"bdn-1": {1, 2}, "bdn-2": {1}},
			wantSpent: 3 * ackTimeout, wantSessionTo: "bdn-2",
		},
		{
			name: "a fresh session silent throughout is retransmitted to, then the next BDN",
			sessions: map[string][]func(int, []byte) []reply{
				"bdn-1": {silent},
				"bdn-2": {acks("second")},
			},
			addrs:   []string{"bdn-1", "bdn-2"},
			wantBDN: "second", wantRetransmits: 2, wantDials: []string{"bdn-1", "bdn-2"},
			wantSends: map[string][]int{"bdn-1": {3}, "bdn-2": {1}},
			wantSpent: 3 * ackTimeout, wantSessionTo: "bdn-2",
		},
		{
			name: "a fresh session that breaks is not redialled",
			sessions: map[string][]func(int, []byte) []reply{
				"bdn-1": {func(int, []byte) []reply { return []reply{{err: transport.ErrClosed}} }, acks("never dialled")},
			},
			addrs:   []string{"bdn-1"},
			wantErr: ErrNoPath, wantDials: []string{"bdn-1"},
			wantSends: map[string][]int{"bdn-1": {1, 0}},
		},
		{
			name: "the session's BDN is asked before the configured order", warm: true,
			sessions: map[string][]func(int, []byte) []reply{
				"bdn-1": {afterWarmUp(acks("kept"))},
				"bdn-0": {acks("not asked")},
			},
			addrs:   []string{"bdn-0", "bdn-1"},
			wantBDN: "kept", wantSends: map[string][]int{"bdn-1": {1}, "bdn-0": {0}}, wantSessionTo: "bdn-1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := &manualClock{now: time.Unix(1_000_000, 0)}
			node := &scriptNode{clock: clock, sessions: map[string][]*scriptedSession{}}
			all := map[string][]*scriptedSession{}
			for addr, scripts := range tc.sessions {
				for _, onSend := range scripts {
					all[addr] = append(all[addr], &scriptedSession{clock: clock, onSend: onSend})
				}
				node.sessions[addr] = append([]*scriptedSession(nil), all[addr]...)
			}
			d := NewDiscoverer(node, ntptime.NewService(clock, 0, nil), Config{
				NodeName: "tester", AckTimeout: ackTimeout, MaxRetransmits: 2,
			})
			if tc.warm {
				d.cfg.BDNAddrs = []string{"bdn-1"}
				if _, _, n, err := d.issue(&DiscoveryRequest{ID: uuid.New()}, nil); err != nil || n != 0 {
					t.Fatalf("warm-up: %d retransmits, err %v", n, err)
				}
				node.dials = nil
			}
			d.cfg.BDNAddrs = tc.addrs
			warmUps := map[*scriptedSession]int{}
			for _, ss := range all {
				for _, s := range ss {
					warmUps[s] = len(s.sent)
				}
			}

			start := clock.now
			via, bdn, retransmits, err := d.issue(&DiscoveryRequest{ID: uuid.New()}, nil)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if err == nil && (via != ViaBDN || bdn != tc.wantBDN) {
				t.Errorf("acknowledged via %q by %q, want by %q", via, bdn, tc.wantBDN)
			}
			if retransmits != tc.wantRetransmits {
				t.Errorf("Retransmits = %d, want %d", retransmits, tc.wantRetransmits)
			}
			if !reflect.DeepEqual(node.dials, tc.wantDials) {
				t.Errorf("dials = %v, want %v", node.dials, tc.wantDials)
			}
			var request []byte
			for addr, ss := range all {
				var sends []int
				for _, s := range ss {
					frames := s.sent[warmUps[s]:]
					sends = append(sends, len(frames))
					for _, f := range frames {
						if request == nil {
							request = f
						}
						if !bytes.Equal(f, request) {
							t.Errorf("%s was sent a different frame: the request must be re-sent as it is", addr)
						}
					}
				}
				if !reflect.DeepEqual(sends, tc.wantSends[addr]) {
					t.Errorf("request frames sent to %s, per session = %v, want %v", addr, sends, tc.wantSends[addr])
				}
			}
			if spent := clock.now.Sub(start); spent != tc.wantSpent {
				t.Errorf("issuing took %v on the clock, want %v", spent, tc.wantSpent)
			}
			if d.sessAddr != tc.wantSessionTo || (d.sess != nil) != (tc.wantSessionTo != "") {
				t.Errorf("standing session to %q (held: %v), want to %q", d.sessAddr, d.sess != nil, tc.wantSessionTo)
			}
			for addr, ss := range all {
				for i, s := range ss {
					if held := transport.Conn(s) == d.sess; !held && !s.closed && len(s.sent) > 0 {
						t.Errorf("session %d to %s was used, is not the standing one, and was not closed", i, addr)
					}
				}
			}
		})
	}
}

// arrival is one datagram due on a scriptedEndpoint at an absolute time.
type arrival struct {
	at      time.Time
	payload []byte
}

// scriptedEndpoint is a PacketConn whose far side is a script with absolute
// arrival times: every datagram sent is shown to onSend, which returns what
// arrives because of it and how much later. Receiving returns the earliest
// arrival, moving the manual clock forward to it when it lies ahead; arrivals
// in the past are simply there, as on a socket nobody read for a while.
type scriptedEndpoint struct {
	transport.PacketConn
	clock  *manualClock
	onSend func(to string, ev *event.Event) (payload []byte, after time.Duration)
	inbox  []arrival
	read   [][]byte // every datagram handed to the reader, in order
}

func (c *scriptedEndpoint) LocalAddr() string { return "requester:1" }

func (c *scriptedEndpoint) Send(to string, payload []byte) error {
	ev, err := event.Decode(payload)
	if err != nil {
		panic(err)
	}
	if answer, after := c.onSend(to, ev); answer != nil {
		c.inbox = append(c.inbox, arrival{at: c.clock.now.Add(after), payload: answer})
		sort.SliceStable(c.inbox, func(i, j int) bool { return c.inbox[i].at.Before(c.inbox[j].at) })
	}
	return nil
}

func (c *scriptedEndpoint) RecvTimeout(d time.Duration) ([]byte, string, error) {
	if len(c.inbox) == 0 || c.inbox[0].at.After(c.clock.now.Add(d)) {
		c.clock.Sleep(d)
		return nil, "", transport.ErrTimeout
	}
	next := c.inbox[0]
	c.inbox = c.inbox[1:]
	if next.at.After(c.clock.now) {
		c.clock.now = next.at
	}
	c.read = append(c.read, next.payload)
	return next.payload, "far-side", nil
}

// TestLateResponsesOfPreviousDiscoveryIgnored: six brokers answer, the first
// two responses end the collection, and the other four arrive after the
// discovery is over. They are on the endpoint when the next discovery
// collects, and must not become its candidates.
func TestLateResponsesOfPreviousDiscoveryIgnored(t *testing.T) {
	const ms = time.Millisecond
	clock := &manualClock{now: time.Unix(1_000_000, 0)}
	var brokers []BrokerInfo
	delay := map[string]time.Duration{}
	for i, name := range []string{"near-0", "near-1", "far-0", "far-1", "far-2", "far-3"} {
		addr := name + ":udp"
		brokers = append(brokers, BrokerInfo{LogicalAddress: name,
			Endpoints: []TransportEndpoint{{Protocol: "udp", Address: addr}}})
		delay[addr] = time.Duration(i+1) * ms
		if i >= 2 {
			delay[addr] += 500 * ms
		}
	}
	pc := &scriptedEndpoint{clock: clock}
	pc.onSend = func(to string, ev *event.Event) ([]byte, time.Duration) {
		name := to[:len(to)-len(":udp")]
		switch ev.Type {
		case event.TypeDiscoveryRequest:
			req, err := DecodeDiscoveryRequest(ev.Payload)
			if err != nil {
				panic(err)
			}
			resp := &DiscoveryResponse{RequestID: req.ID, Timestamp: clock.now, Broker: brokers[0]}
			for _, b := range brokers {
				if b.LogicalAddress == name {
					resp.Broker = b
				}
			}
			return event.Encode(event.New(event.TypeDiscoveryResponse, "", EncodeDiscoveryResponse(resp))), delay[to]
		case event.TypePing:
			p, err := DecodePing(ev.Payload)
			if err != nil {
				panic(err)
			}
			return pongFor(p, 0).payload, delay[to]
		}
		return nil, 0
	}
	node := &scriptNode{clock: clock, endpoint: pc}
	d := NewDiscoverer(node, ntptime.NewService(clock, 0, nil), Config{
		NodeName: "tester", MaxResponses: 2, CollectWindow: 2 * time.Second, PingWindow: time.Second,
	})
	d.SeedTargetSet(brokers)

	first, err := d.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Responses) != 2 || len(pc.inbox) != 4 {
		t.Fatalf("first discovery took %d responses and left %d datagrams in flight, want 2 and 4",
			len(first.Responses), len(pc.inbox))
	}
	// The target set (the two near brokers) is what the next request goes to.
	clock.Sleep(time.Second) // the late four have arrived; nobody has read them
	pc.read = nil

	second, err := d.Discover()
	if err != nil {
		t.Fatal(err)
	}
	staleRead := 0
	for _, payload := range pc.read {
		if ev, err := event.Decode(payload); err == nil && ev.Type == event.TypeDiscoveryResponse {
			if resp, err := DecodeDiscoveryResponse(ev.Payload); err == nil && resp.RequestID == first.RequestID {
				staleRead++
			}
		}
	}
	if staleRead != 4 {
		t.Fatalf("the second discovery read %d responses of the first, want all 4 late ones", staleRead)
	}
	seen := map[string]bool{}
	for _, c := range second.Responses {
		if c.Response.RequestID != second.RequestID {
			t.Errorf("candidate %s answers request %s, not this discovery's %s",
				c.Response.Broker.LogicalAddress, c.Response.RequestID, second.RequestID)
		}
		if seen[c.Response.Broker.LogicalAddress] {
			t.Errorf("broker %s appears twice", c.Response.Broker.LogicalAddress)
		}
		seen[c.Response.Broker.LogicalAddress] = true
	}
	if !seen["near-0"] || !seen["near-1"] || len(second.Responses) != 2 {
		t.Fatalf("second discovery's candidates = %v, want the two near brokers", seen)
	}
	if !second.PingDecided || second.Selected.LogicalAddress != "near-0" {
		t.Fatalf("selected %q (by ping: %v), want near-0 by ping", second.Selected.LogicalAddress, second.PingDecided)
	}
}

func TestConfigDefaultsFilled(t *testing.T) {
	node := transport.NewSimNode(simnet.NewPaperWAN(simnet.Config{}), simnet.SiteBloomington, "client", 0)
	d := NewDiscoverer(node, ntptime.NewService(node.Clock(), 0, nil), Config{})
	cfg := d.Config()
	if cfg.CollectWindow != DefaultCollectWindow ||
		cfg.Selection.TargetSetSize != DefaultTargetSetSize ||
		cfg.PingCount != DefaultPingCount ||
		cfg.AckTimeout != DefaultAckTimeout ||
		cfg.MaxRetransmits != DefaultMaxRetransmits {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
	if cfg.Selection.Weights == (metrics.Weights{}) {
		t.Fatal("weights not defaulted")
	}
	if len(cfg.Protocols) == 0 {
		t.Fatal("protocols not defaulted")
	}
}
