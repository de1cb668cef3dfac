package simnet

import (
	"testing"
	"time"
)

// silence is how long a test waits to see that a datagram does not arrive:
// longer than the WAN's longest one-way delay (67.5 ms, FSU to Cardiff).
const silence = 100 * time.Millisecond

// testWAN returns the paper WAN for one test and runs that test in parallel
// with the others: each waits on its own network, for up to a few hundred
// milliseconds of wall clock.
func testWAN(t *testing.T, seed int64) *Network {
	t.Parallel()
	return NewPaperWAN(Config{Seed: seed})
}

func TestAddrString(t *testing.T) {
	a := Addr{Site: "fsu", Host: "broker1", Port: 42}
	if got := a.String(); got != "fsu/broker1:42" {
		t.Fatalf("String = %q", got)
	}
}

func TestPaperWANSites(t *testing.T) {
	n := testWAN(t, 1)
	if got := len(n.Sites()); got != 6 {
		t.Fatalf("site count = %d, want 6", got)
	}
	for _, a := range PaperSiteNames() {
		for _, b := range PaperSiteNames() {
			if _, ok := n.RTT(a, b); !ok {
				t.Fatalf("no RTT between %s and %s", a, b)
			}
		}
	}
	// Transatlantic must be the slowest path from Bloomington.
	cardiff, _ := n.RTT(SiteBloomington, SiteCardiff)
	for _, b := range PaperSiteNames()[1 : len(PaperSiteNames())-1] {
		d, _ := n.RTT(SiteBloomington, b)
		if d > cardiff {
			t.Fatalf("RTT to %s (%v) exceeds Cardiff (%v)", b, d, cardiff)
		}
	}
}

func TestTable1MachinesComplete(t *testing.T) {
	ms := Table1Machines()
	if len(ms) != 5 {
		t.Fatalf("machine count = %d, want 5", len(ms))
	}
	for _, m := range ms {
		if m.Hostname == "" || m.SiteName == "" || m.Spec == "" {
			t.Fatalf("incomplete machine row: %+v", m)
		}
	}
}

func TestPacketRoundTrip(t *testing.T) {
	n := testWAN(t, 2)
	a, err := n.ListenPacket(Addr{Site: SiteBloomington, Host: "a"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.ListenPacket(Addr{Site: SiteFSU, Host: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	p, err := b.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(p.Payload) != "ping" || p.From != a.Addr() {
		t.Fatalf("got %q from %v", p.Payload, p.From)
	}
}

func TestPacketLoss(t *testing.T) {
	n := testWAN(t, 4)
	n.SetLoss(SiteBloomington, SiteFSU, 1.0) // always lose
	a, _ := n.ListenPacket(Addr{Site: SiteBloomington, Host: "a"})
	b, _ := n.ListenPacket(Addr{Site: SiteFSU, Host: "b"})
	if err := a.Send(b.Addr(), []byte("x")); err != nil {
		t.Fatal(err) // loss is silent
	}
	if _, err := b.RecvTimeout(silence); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	_, dropped, _ := n.Counters()
	if dropped == 0 {
		t.Fatal("drop counter not incremented")
	}
}

func TestLocalTrafficNeverLost(t *testing.T) {
	t.Parallel()
	n := NewPaperWAN(Config{Seed: 5, DefaultLoss: 1.0})
	a, _ := n.ListenPacket(Addr{Site: SiteUMN, Host: "a"})
	b, _ := n.ListenPacket(Addr{Site: SiteUMN, Host: "b"})
	if err := a.Send(b.Addr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvTimeout(2 * time.Second); err != nil {
		t.Fatalf("same-site datagram lost: %v", err)
	}
}

func TestPartitionBlocksDatagramsSilently(t *testing.T) {
	n := testWAN(t, 6)
	n.Partition(SiteBloomington, SiteFSU)
	a, _ := n.ListenPacket(Addr{Site: SiteBloomington, Host: "a"})
	b, _ := n.ListenPacket(Addr{Site: SiteFSU, Host: "b"})
	if err := a.Send(b.Addr(), []byte("x")); err != nil {
		t.Fatalf("datagram into partition should vanish silently, got %v", err)
	}
	if _, err := b.RecvTimeout(silence); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	n.Heal(SiteBloomington, SiteFSU)
	if err := a.Send(b.Addr(), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvTimeout(2 * time.Second); err != nil {
		t.Fatalf("post-heal delivery failed: %v", err)
	}
}

func TestNodeDown(t *testing.T) {
	n := testWAN(t, 7)
	a, _ := n.ListenPacket(Addr{Site: SiteBloomington, Host: "a"})
	b, _ := n.ListenPacket(Addr{Site: SiteFSU, Host: "b"})
	n.SetNodeDown(SiteFSU, "b", true)
	_ = a.Send(b.Addr(), []byte("x"))
	if _, err := b.RecvTimeout(silence); err != ErrTimeout {
		t.Fatalf("down node received a packet: %v", err)
	}
	n.SetNodeDown(SiteFSU, "b", false)
	_ = a.Send(b.Addr(), []byte("y"))
	if _, err := b.RecvTimeout(2 * time.Second); err != nil {
		t.Fatalf("recovered node did not receive: %v", err)
	}
}

func TestListenPacketAddrInUse(t *testing.T) {
	n := testWAN(t, 8)
	addr := Addr{Site: SiteUMN, Host: "x", Port: 500}
	if _, err := n.ListenPacket(addr); err != nil {
		t.Fatal(err)
	}
	if _, err := n.ListenPacket(addr); err != ErrAddrInUse {
		t.Fatalf("err = %v, want ErrAddrInUse", err)
	}
}

func TestListenPacketUnknownSite(t *testing.T) {
	n := testWAN(t, 9)
	if _, err := n.ListenPacket(Addr{Site: "atlantis", Host: "x"}); err == nil {
		t.Fatal("unknown site accepted")
	}
}

func TestPacketCloseUnblocksRecv(t *testing.T) {
	n := testWAN(t, 10)
	a, _ := n.ListenPacket(Addr{Site: SiteUMN, Host: "a"})
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	if err := a.Send(Addr{Site: SiteUMN, Host: "b"}, nil); err != ErrClosed {
		t.Fatalf("Send after close: %v, want ErrClosed", err)
	}
	if err := a.Close(); err != ErrClosed {
		t.Fatalf("double close: %v, want ErrClosed", err)
	}
}

func TestMulticastRealmScoping(t *testing.T) {
	n := testWAN(t, 11)
	const group = "brokers"
	sender, _ := n.ListenPacket(Addr{Site: SiteBloomington, Host: "client"})
	sameRealm, _ := n.ListenPacket(Addr{Site: SiteIndianapolis, Host: "b1"})
	otherRealm, _ := n.ListenPacket(Addr{Site: SiteCardiff, Host: "b2"})
	sender.JoinGroup(group)
	sameRealm.JoinGroup(group)
	otherRealm.JoinGroup(group)

	if err := sender.SendGroup(group, []byte("discover")); err != nil {
		t.Fatal(err)
	}
	if _, err := sameRealm.RecvTimeout(2 * time.Second); err != nil {
		t.Fatalf("same-realm member missed multicast: %v", err)
	}
	if _, err := otherRealm.RecvTimeout(silence); err != ErrTimeout {
		t.Fatalf("multicast crossed realms: err = %v", err)
	}
	// Sender must not hear its own multicast.
	if _, err := sender.RecvTimeout(silence); err != ErrTimeout {
		t.Fatalf("sender received own multicast: %v", err)
	}
}

func TestMulticastLeaveGroup(t *testing.T) {
	n := testWAN(t, 12)
	s, _ := n.ListenPacket(Addr{Site: SiteBloomington, Host: "s"})
	m, _ := n.ListenPacket(Addr{Site: SiteBloomington, Host: "m"})
	m.JoinGroup("g")
	m.LeaveGroup("g")
	_ = s.SendGroup("g", []byte("x"))
	if _, err := m.RecvTimeout(silence); err != ErrTimeout {
		t.Fatalf("left member still receives: %v", err)
	}
}

func TestDialNoListener(t *testing.T) {
	n := testWAN(t, 15)
	_, err := n.Dial(Addr{Site: SiteUMN, Host: "c"}, Addr{Site: SiteFSU, Host: "s", Port: 1})
	if err != ErrConnRefused {
		t.Fatalf("err = %v, want ErrConnRefused", err)
	}
}

func TestDialPartitioned(t *testing.T) {
	n := testWAN(t, 16)
	l, _ := n.Listen(Addr{Site: SiteFSU, Host: "s", Port: 902})
	n.Partition(SiteUMN, SiteFSU)
	if _, err := n.Dial(Addr{Site: SiteUMN, Host: "c"}, l.Addr()); err != ErrNoRoute {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestStreamCloseUnblocksPeer(t *testing.T) {
	n := testWAN(t, 17)
	l, _ := n.Listen(Addr{Site: SiteUMN, Host: "s", Port: 903})
	acceptCh := make(chan *Conn, 1)
	go func() {
		c, _ := l.Accept()
		acceptCh <- c
	}()
	cli, err := n.Dial(Addr{Site: SiteUMN, Host: "c"}, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	srv := <-acceptCh
	_ = cli.Close()
	if _, err := srv.RecvTimeout(2 * time.Second); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := cli.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("Send after close: %v, want ErrClosed", err)
	}
}

func TestListenerClose(t *testing.T) {
	n := testWAN(t, 18)
	l, _ := n.Listen(Addr{Site: SiteUMN, Host: "s", Port: 904})
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = l.Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("Accept err = %v, want ErrClosed", err)
	}
	// Address is free again after close.
	if _, err := n.Listen(Addr{Site: SiteUMN, Host: "s", Port: 904}); err != nil {
		t.Fatalf("relisten failed: %v", err)
	}
}

func TestRandomSkewBounded(t *testing.T) {
	n := testWAN(t, 19)
	max := 20 * time.Millisecond
	for i := 0; i < 500; i++ {
		s := n.RandomSkew(max)
		if s < -max || s > max {
			t.Fatalf("skew %v outside [-%v, %v]", s, max, max)
		}
	}
}

func TestCountersAdvance(t *testing.T) {
	n := testWAN(t, 20)
	a, _ := n.ListenPacket(Addr{Site: SiteUMN, Host: "a"})
	b, _ := n.ListenPacket(Addr{Site: SiteUMN, Host: "b"})
	_ = a.Send(b.Addr(), []byte("x"))
	sent, _, _ := n.Counters()
	if sent != 1 {
		t.Fatalf("datagramsSent = %d, want 1", sent)
	}
}

func TestDuplicateDatagrams(t *testing.T) {
	t.Parallel()
	n := NewPaperWAN(Config{Seed: 61, DuplicateProb: 1.0})
	a, _ := n.ListenPacket(Addr{Site: SiteBloomington, Host: "a"})
	b, _ := n.ListenPacket(Addr{Site: SiteFSU, Host: "b"})
	if err := a.Send(b.Addr(), []byte("twice")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := b.RecvTimeout(5 * time.Second); err != nil {
			t.Fatalf("copy %d missing: %v", i, err)
		}
	}
	// Same-site traffic never duplicates.
	c, _ := n.ListenPacket(Addr{Site: SiteFSU, Host: "c"})
	if err := b.Send(c.Addr(), []byte("once")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecvTimeout(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecvTimeout(silence); err != ErrTimeout {
		t.Fatal("same-site datagram duplicated")
	}
}
