package core

import (
	"reflect"
	"testing"
	"time"

	"narada/internal/event"
	"narada/internal/transport"
	"narada/internal/uuid"
)

// manualClock moves only when the scripted endpoint says time passed.
type manualClock struct{ now time.Time }

func (c *manualClock) Now() time.Time                       { return c.now }
func (c *manualClock) Sleep(d time.Duration)                { c.now = c.now.Add(d) }
func (c *manualClock) After(time.Duration) <-chan time.Time { panic("not used by MeasureRTT") }

// datagram is one scripted arrival: payload lands `after` the previous one.
type datagram struct {
	after   time.Duration
	payload []byte
}

// scriptedConn is a PacketConn whose far side is a script: every ping sent is
// shown to onPing, which returns what arrives because of it. Receiving pops
// the arrivals in order and advances the clock by each one's delay; when the
// next arrival is later than the caller is willing to wait, the wait times
// out having consumed exactly that long.
type scriptedConn struct {
	transport.PacketConn // the methods MeasureRTT must not touch
	clock                *manualClock
	onPing               func(addr string, p *Ping) []datagram
	inbox                []datagram
	pinged               map[string]int // address -> pings sent to it
}

func (c *scriptedConn) Send(to string, payload []byte) error {
	ev, err := event.Decode(payload)
	if err != nil || ev.Type != event.TypePing {
		panic("MeasureRTT sent something that is not a ping")
	}
	p, err := DecodePing(ev.Payload)
	if err != nil {
		panic(err)
	}
	c.pinged[to]++
	c.inbox = append(c.inbox, c.onPing(to, p)...)
	return nil
}

func (c *scriptedConn) RecvTimeout(d time.Duration) ([]byte, string, error) {
	if len(c.inbox) == 0 || c.inbox[0].after > d {
		c.clock.Sleep(d)
		return nil, "", transport.ErrTimeout
	}
	next := c.inbox[0]
	c.inbox = c.inbox[1:]
	c.clock.Sleep(next.after)
	return next.payload, "far-side", nil
}

func pongFor(p *Ping, after time.Duration) datagram {
	ev := event.New(event.TypePong, "", EncodePong(&Pong{ID: p.ID, EchoSent: p.SentAt, Seq: p.Seq}))
	return datagram{after: after, payload: event.Encode(ev)}
}

func TestMeasureRTT(t *testing.T) {
	const ms = time.Millisecond
	echo := func(_ string, p *Ping) []datagram { return []datagram{pongFor(p, ms)} }
	stray := func() []datagram {
		resp := event.New(event.TypeDiscoveryResponse, "",
			EncodeDiscoveryResponse(&DiscoveryResponse{RequestID: uuid.New()}))
		return []datagram{
			{after: ms, payload: event.Encode(resp)},
			pongFor(&Ping{ID: uuid.New()}, ms), // a pong from some earlier run
			{after: ms, payload: []byte("not an event")},
		}
	}
	cases := []struct {
		name   string
		addrs  []string
		k      int
		window time.Duration
		onPing func(addr string, p *Ping) []datagram
		want   []RTT
		pinged map[string]int
		spent  time.Duration // how long the exchange may take on the clock
	}{
		{
			// Arrivals are serial, 1 ms apart: a's pongs land at 1, 2, 3 ms and
			// b's at 4, 5, 6 ms after the pings went out together.
			name: "all pongs arrive", addrs: []string{"a", "b"}, k: 3, window: time.Second,
			onPing: echo,
			want:   []RTT{{2 * ms, 3}, {5 * ms, 3}},
			pinged: map[string]int{"a": 3, "b": 3}, spent: 6 * ms,
		},
		{
			name: "one target silent", addrs: []string{"a", "mute", "b"}, k: 2, window: time.Second,
			onPing: func(addr string, p *Ping) []datagram {
				if addr == "mute" {
					return nil
				}
				return echo(addr, p)
			},
			want:   []RTT{{1500 * time.Microsecond, 2}, {}, {3500 * time.Microsecond, 2}},
			pinged: map[string]int{"a": 2, "mute": 2, "b": 2}, spent: time.Second,
		},
		{
			name: "a duplicated pong is one sample", addrs: []string{"a"}, k: 2, window: time.Second,
			onPing: func(_ string, p *Ping) []datagram {
				return []datagram{pongFor(p, ms), pongFor(p, ms)}
			},
			// seq 0 at 1 ms (its copy at 2 ms dropped), seq 1 at 3 ms; the
			// fourth datagram is never read: nothing is outstanding.
			want:   []RTT{{2 * ms, 2}},
			pinged: map[string]int{"a": 2}, spent: 3 * ms,
		},
		{
			name: "strays are skipped without ending the wait", addrs: []string{"a"}, k: 1, window: time.Second,
			onPing: func(_ string, p *Ping) []datagram { return append(stray(), pongFor(p, ms)) },
			want:   []RTT{{4 * ms, 1}},
			pinged: map[string]int{"a": 1}, spent: 4 * ms,
		},
		{
			name: "the window closes with pongs outstanding", addrs: []string{"near", "far"}, k: 1, window: 50 * ms,
			onPing: func(addr string, p *Ping) []datagram {
				if addr == "far" {
					return []datagram{pongFor(p, 80*ms)}
				}
				return echo(addr, p)
			},
			want:   []RTT{{ms, 1}, {}},
			pinged: map[string]int{"near": 1, "far": 1}, spent: 50 * ms,
		},
		{
			name: "a target with no UDP endpoint is not pinged", addrs: []string{"", "a"}, k: 2, window: time.Second,
			onPing: echo,
			want:   []RTT{{}, {1500 * time.Microsecond, 2}},
			pinged: map[string]int{"a": 2}, spent: 2 * ms,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Unix(1_000_000, 0)
			clock := &manualClock{now: start}
			pc := &scriptedConn{clock: clock, onPing: tc.onPing, pinged: map[string]int{}}
			got := MeasureRTT(pc, clock, "tester", "", tc.addrs, tc.k, tc.window)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("RTTs = %v, want %v", got, tc.want)
			}
			if !reflect.DeepEqual(pc.pinged, tc.pinged) {
				t.Errorf("pings sent = %v, want %v", pc.pinged, tc.pinged)
			}
			if spent := clock.now.Sub(start); spent != tc.spent {
				t.Errorf("exchange took %v on the clock, want %v", spent, tc.spent)
			}
		})
	}
}

// TestRequestTrace: the headers win; without them the context heals from the
// request body and is stamped onto the event.
func TestRequestTrace(t *testing.T) {
	req := &DiscoveryRequest{ID: uuid.New(), Requester: "client"}
	stamped := event.New(event.TypeDiscoveryRequest, "", nil)
	stamped.SetTrace("trace-7", "origin-node", 3)
	if id, origin, hop := RequestTrace(stamped, req); id != "trace-7" || origin != "origin-node" || hop != 3 {
		t.Fatalf("stamped context read as %q %q %d", id, origin, hop)
	}
	bare := event.New(event.TypeDiscoveryRequest, "", nil)
	if id, origin, hop := RequestTrace(bare, req); id != req.ID.String() || origin != "client" || hop != 0 {
		t.Fatalf("healed context = %q %q %d", id, origin, hop)
	}
	if id, origin, _, ok := bare.Trace(); !ok || id != req.ID.String() || origin != "client" {
		t.Fatalf("healed context not stamped onto the event: %q %q %v", id, origin, ok)
	}
}
