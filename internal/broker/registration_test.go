package broker

import (
	"sync/atomic"
	"testing"
	"time"

	"narada/internal/core"
	"narada/internal/event"
	"narada/internal/transport"
	"narada/internal/uuid"
)

// fakeBDN is a plain loopback listener a broker registers with: it accepts
// the registration connection, reads the hello and the advertisement, and
// from then on hands every frame the broker sends (heartbeats) to onFrame.
type fakeBDN struct {
	addr string
	conn transport.Conn
}

func startFakeBDN(t *testing.T, br *Broker, onFrame func(conn transport.Conn, frame []byte)) *fakeBDN {
	t.Helper()
	l, err := transport.NewRealNode("127.0.0.1", nil).Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if err := br.RegisterWithBDN(l.Addr()); err != nil {
		t.Fatal(err)
	}
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	for _, want := range []event.Type{event.TypeLinkHello, event.TypeAdvertisement} {
		if _, ev := nextFrame(t, conn); ev.Type != want {
			t.Fatalf("registration opened with %v, want %v", ev.Type, want)
		}
	}
	go func() {
		for {
			frame, err := conn.Recv()
			if err != nil {
				return
			}
			onFrame(conn, frame)
		}
	}()
	return &fakeBDN{addr: l.Addr(), conn: conn}
}

func (f *fakeBDN) peer() string { return "bdn:" + f.addr }

// TestRegistrationLinkAcceptsOnlyRequestsAndHeartbeats: a registration link
// runs the link session every link runs, but it is request-only — a BDN
// injects discovery requests and echoes keepalives; a publish or an interest
// update arriving on it is dropped and counted "other".
func TestRegistrationLinkAcceptsOnlyRequestsAndHeartbeats(t *testing.T) {
	br := realBroker(t, "reg-only", func(c *Config) { c.Routing = RouteSubscriptions })
	bdn := startFakeBDN(t, br, func(transport.Conn, []byte) {})
	waitFor(t, "the registration link", func() bool { return containsString(br.Peers(), bdn.peer()) })
	sub := rawSubscriber(t, br, "reg/topic")

	pc, err := transport.NewRealNode("127.0.0.1", nil).ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	interest := event.New(event.TypeControl, "planted/#", nil)
	interest.SetHeader(controlOpHeader, opSubAdd)
	req := &core.DiscoveryRequest{ID: uuid.New(), Requester: "probe", ResponseAddr: pc.LocalAddr()}
	otherBefore, discBefore := br.tel.framesOther.Value(), br.tel.framesDiscovery.Value()
	controlBefore := br.tel.framesControl.Value()
	for _, ev := range []*event.Event{
		publishEvent("reg/topic", "from a BDN"),
		interest,
		event.New(event.TypeLinkHeartbeat, "", nil),
		event.New(event.TypeDiscoveryRequest, "", core.EncodeDiscoveryRequest(req)),
	} {
		if err := bdn.conn.Send(event.Encode(ev)); err != nil {
			t.Fatal(err)
		}
	}

	// The request went last, so its answer means the other three were handled.
	payload, _, err := pc.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatalf("injected request not answered over UDP: %v", err)
	}
	if ev, err := event.Decode(payload); err != nil || ev.Type != event.TypeDiscoveryResponse {
		t.Fatalf("UDP reply is not a discovery response: %v %v", ev, err)
	}
	if frame, err := sub.RecvTimeout(50 * time.Millisecond); err == nil {
		t.Fatalf("a publish sent down a registration link reached a subscriber: %x", frame)
	}
	br.interest.mu.Lock()
	planted := len(br.interest.remote)
	br.interest.mu.Unlock()
	if planted != 0 || matchIDs(br.subs, "planted/x") != nil {
		t.Fatalf("an interest update sent down a registration link changed the table (%d remote sources, match %v)",
			planted, matchIDs(br.subs, "planted/x"))
	}
	if got := br.tel.framesOther.Value() - otherBefore; got != 2 {
		t.Fatalf(`frames_total{kind="other"} moved by %d, want 2 (the publish and the interest update)`, got)
	}
	if got := br.tel.framesDiscovery.Value() - discBefore; got != 1 {
		t.Fatalf(`frames_total{kind="discovery"} moved by %d, want 1`, got)
	}
	if got := br.tel.framesControl.Value() - controlBefore; got != 1 {
		t.Fatalf(`frames_total{kind="control"} moved by %d, want 1 (the heartbeat echo)`, got)
	}
}

// TestRegistrationLinkHeartbeat: HeartbeatInterval drives a registration link
// like any other — the broker sends keepalives, the BDN's echo counts as a
// control frame and refreshes the link's liveness clock, and a BDN that stops
// echoing is shed after three silent intervals.
func TestRegistrationLinkHeartbeat(t *testing.T) {
	const interval = 20 * time.Millisecond
	br := realBroker(t, "reg-hb", func(c *Config) { c.HeartbeatInterval = interval })
	var echo atomic.Bool
	echo.Store(true)
	bdn := startFakeBDN(t, br, func(conn transport.Conn, frame []byte) {
		if ev, err := event.Decode(frame); err == nil && ev.Type == event.TypeLinkHeartbeat && echo.Load() {
			_ = conn.Send(frame)
		}
	})
	waitFor(t, "the registration link", func() bool { return containsString(br.Peers(), bdn.peer()) })
	br.mu.Lock()
	lk := br.links[bdn.peer()]
	br.mu.Unlock()
	up := lk.lastSeen()

	// Echoed: well past the three-interval limit the link is still there, its
	// clock has moved and the echoes were counted.
	controlBefore := br.tel.framesControl.Value()
	time.Sleep(6 * interval)
	if !containsString(br.Peers(), bdn.peer()) {
		t.Fatal("registration link shed although the BDN echoed every heartbeat")
	}
	if !lk.lastSeen().After(up) || br.tel.framesControl.Value() == controlBefore {
		t.Fatalf("heartbeat echoes did not touch the link (lastSeen %v → %v, control frames +%d)",
			up, lk.lastSeen(), br.tel.framesControl.Value()-controlBefore)
	}

	echo.Store(false)
	waitFor(t, "the silent BDN's link to be shed", func() bool { return !containsString(br.Peers(), bdn.peer()) })
}
