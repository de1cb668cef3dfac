package broker

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/transport"
)

// stepClock is a ManualClock that hands every wait asked of it to the test,
// which checks the wait's length and then advances past it.
type stepClock struct {
	*ntptime.ManualClock
	waits chan time.Duration
}

// After reports d once the waiter is registered, so an Advance by d that
// follows the report always wakes it.
func (c stepClock) After(d time.Duration) <-chan time.Time {
	ch := c.ManualClock.After(d)
	c.waits <- d
	return ch
}

// next returns the next wait the redial loop asks for.
func (c stepClock) next(t *testing.T) time.Duration {
	t.Helper()
	select {
	case d := <-c.waits:
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("the redial loop asked for no wait")
		return 0
	}
}

// manualNode is a sim node whose clock the test drives.
type manualNode struct {
	*transport.SimNode
	clock ntptime.Clock
}

func (n manualNode) Clock() ntptime.Clock { return n.clock }

// scriptedPeer is the far end of one supervised relationship: each dial takes
// the next outcome of plan (nil is a session that stays up until kill), and
// every dial past the plan succeeds.
type scriptedPeer struct {
	mu       sync.Mutex
	plan     []error
	dials    int
	sessions []chan struct{}
}

var errPeerDown = errors.New("peer down")

func (p *scriptedPeer) dial(string) (<-chan struct{}, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dials++
	if p.dials <= len(p.plan) && p.plan[p.dials-1] != nil {
		return nil, p.plan[p.dials-1]
	}
	s := make(chan struct{})
	p.sessions = append(p.sessions, s)
	return s, nil
}

// kill ends the newest session.
func (p *scriptedPeer) kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	close(p.sessions[len(p.sessions)-1])
}

func (p *scriptedPeer) dialCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dials
}

// failing is a plan of n failed dials.
func failing(n int) []error {
	plan := make([]error, n)
	for i := range plan {
		plan[i] = errPeerDown
	}
	return plan
}

// supervise starts supervising one relationship to p from a broker on a
// clock the test drives. The broker is never started: supervision needs only
// its clock, its lock and its telemetry. It returns superviseDial's error.
func supervise(t *testing.T, p *scriptedPeer) (*Broker, *Supervisor, stepClock, error) {
	t.Helper()
	manual := ntptime.NewManualClock(time.Unix(0, 0))
	// Room for every wait a test reads, so a loop never blocks reporting one
	// the test no longer reads (Close during a back-off).
	clock := stepClock{manual, make(chan time.Duration, 64)}
	ntp := ntptime.NewService(manual, 0, nil)
	ntp.InitImmediately()
	node := transport.NewSimNode(simnet.NewPaperWAN(simnet.Config{Seed: 1}), simnet.SiteUMN, "b", 0)
	b, err := New(manualNode{node, clock}, ntp, Config{
		LogicalAddress: "b",
		Supervise:      true,
		Sampler:        metrics.NewStaticSampler(metrics.Usage{TotalMemBytes: 512 * mib}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	err = b.superviseDial(SuperviseLink, "peer", p.dial)
	s := b.Supervisor(SuperviseLink, "peer")
	if s == nil {
		t.Fatal("no supervisor for the relationship")
	}
	return b, s, clock, err
}

// within fails unless d is want jittered by at most ±20 %.
func within(t *testing.T, what string, d, want time.Duration) {
	t.Helper()
	if lo, hi := want*8/10, want*12/10; d < lo || d > hi {
		t.Fatalf("%s = %v, want %v ± 20%% [%v, %v]", what, d, want, lo, hi)
	}
}

// await polls cond on the wall clock: the loop runs on its own goroutine.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestSuperviseInitialSession: a relationship whose first dial made a
// session is supervised from that session: no redial while it lives, one
// after it dies.
func TestSuperviseInitialSession(t *testing.T) {
	p := &scriptedPeer{}
	_, s, clock, err := supervise(t, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.State(); got != LinkConnected {
		t.Fatalf("state with a live first session = %v, want connected", got)
	}
	time.Sleep(10 * time.Millisecond)
	if a, n := s.Attempts(), p.dialCount(); a != 0 || n != 1 {
		t.Fatalf("attempts = %d, dials = %d while the first session lives, want 0 and 1", a, n)
	}
	p.kill()
	clock.Advance(clock.next(t))
	await(t, "the redial after the first session died", func() bool { return p.dialCount() == 2 })
}

func TestSuperviseRedialsAfterSessionDeath(t *testing.T) {
	p := &scriptedPeer{}
	_, s, clock, err := supervise(t, p)
	if err != nil {
		t.Fatal(err)
	}
	p.kill()
	rest := clock.next(t)
	within(t, "rest before the first redial", rest, superviseBase)
	if got := s.State(); got != LinkDegraded {
		t.Fatalf("state while resting = %v, want degraded", got)
	}
	if n := p.dialCount(); n != 1 {
		t.Fatalf("%d dials before the rest was over, want 1", n)
	}
	clock.Advance(rest)
	await(t, "the redialled session", func() bool { return s.State() == LinkConnected })
	if a, ok := s.Attempts(), s.Successes(); a != 1 || ok != 1 {
		t.Fatalf("attempts = %d, successes = %d, want 1 and 1", a, ok)
	}
}

// TestSuperviseBacksOffThroughFailures: a loop keeps redialling through
// failed dials, counting each, until one makes a session.
func TestSuperviseBacksOffThroughFailures(t *testing.T) {
	// The first dial and three redials fail; the loop waits after each redial.
	p := &scriptedPeer{plan: failing(4)}
	_, s, clock, err := supervise(t, p)
	if err == nil {
		t.Fatal("first dial to a dead peer reported success")
	}
	for range 3 {
		clock.Advance(clock.next(t))
	}
	await(t, "the session after the failures", func() bool { return s.State() == LinkConnected })
	if a, ok, n := s.Attempts(), s.Successes(), p.dialCount(); a != 4 || ok != 1 || n != 5 {
		t.Fatalf("attempts = %d, successes = %d, dials = %d, want 4, 1 and 5", a, ok, n)
	}
}

// TestSuperviseLadder pins the back-off ladder: after each failed dial the
// wait doubles from 100 ms up to 30 s, each within ±20 %.
func TestSuperviseLadder(t *testing.T) {
	p := &scriptedPeer{plan: failing(20)}
	_, s, clock, err := supervise(t, p)
	if err == nil {
		t.Fatal("first dial to a dead peer reported success")
	}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond,
		1600 * time.Millisecond, 3200 * time.Millisecond, 6400 * time.Millisecond, 12800 * time.Millisecond,
		25600 * time.Millisecond, 30 * time.Second, 30 * time.Second,
	}
	for i, w := range want {
		d := clock.next(t)
		within(t, fmt.Sprintf("wait after failed redial %d", i+1), d, w)
		if got := s.State(); got != LinkReconnecting {
			t.Fatalf("state while backing off = %v, want reconnecting", got)
		}
		if got := s.Attempts(); got != uint64(i+1) {
			t.Fatalf("attempts = %d at wait %d, want %d", got, i+1, i+1)
		}
		clock.Advance(d)
	}
	if got := s.Successes(); got != 0 {
		t.Fatalf("successes = %d with a dead peer, want 0", got)
	}
}

func TestSuperviseResetsAfterSuccess(t *testing.T) {
	// Dials 1–3 fail, 4 makes a session, 5 fails after it died.
	p := &scriptedPeer{plan: []error{errPeerDown, errPeerDown, errPeerDown, nil, errPeerDown}}
	_, s, clock, _ := supervise(t, p)
	for _, w := range []time.Duration{superviseBase, 2 * superviseBase} {
		d := clock.next(t)
		within(t, "climbing wait", d, w)
		clock.Advance(d)
	}
	await(t, "the session after three failures", func() bool { return s.State() == LinkConnected })
	p.kill()
	d := clock.next(t)
	within(t, "rest after the session died", d, superviseBase)
	clock.Advance(d)
	d = clock.next(t)
	within(t, "wait after the first failure since the reset", d, superviseBase)
	clock.Advance(d)
	await(t, "the next session", func() bool { return s.State() == LinkConnected })
}

// TestSuperviseFirstDialFailed: a relationship whose first dial failed is
// supervised all the same — the caller gets the error, the loop redials.
func TestSuperviseFirstDialFailed(t *testing.T) {
	p := &scriptedPeer{plan: []error{errPeerDown}}
	_, s, _, err := supervise(t, p)
	if !errors.Is(err, errPeerDown) {
		t.Fatalf("superviseDial = %v, want the first dial's error", err)
	}
	await(t, "the redialled session", func() bool { return s.State() == LinkConnected })
	if n := s.Successes(); n != 1 {
		t.Fatalf("successes = %d, want 1", n)
	}
}

func TestSuperviseStopsDuringBackoff(t *testing.T) {
	p := &scriptedPeer{plan: failing(20)}
	b, s, clock, _ := supervise(t, p)
	clock.next(t) // backing off after the loop's first failed redial
	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not interrupt the back-off")
	}
	if got := s.State(); got != LinkStopped {
		t.Fatalf("state after Close = %v, want stopped", got)
	}
	if n := p.dialCount(); n != 2 {
		t.Fatalf("%d dials, want 2: the first and one redial", n)
	}
}

// TestSuperviseOnlyWhenConfigured: without Config.Supervise a relationship
// is dialled once, whatever the dial's outcome.
func TestSuperviseOnlyWhenConfigured(t *testing.T) {
	e := newEnv(t, 61)
	b := e.broker(simnet.SiteUMN, "b", Config{})
	p := &scriptedPeer{plan: []error{errPeerDown}}
	if err := b.superviseDial(SuperviseLink, "peer", p.dial); !errors.Is(err, errPeerDown) {
		t.Fatalf("superviseDial = %v, want the dial's error", err)
	}
	// No supervisor means no redial loop was started.
	if b.Supervisor(SuperviseLink, "peer") != nil {
		t.Fatal("an unsupervised broker keeps a supervisor")
	}
	if n := p.dialCount(); n != 1 {
		t.Fatalf("%d dials without supervision, want 1", n)
	}
}

// TestCloseStopsRedialLoops: Close stops every loop before it tears the
// connections down, so the sessions its teardown ends are not redialled.
func TestCloseStopsRedialLoops(t *testing.T) {
	e := newEnv(t, 62)
	dialer := e.broker(simnet.SiteUMN, "dialer", Config{Supervise: true})
	peer := e.broker(simnet.SiteFSU, "peer", Config{})
	if err := dialer.LinkTo(peer.StreamAddr()); err != nil {
		t.Fatal(err)
	}
	s := dialer.Supervisor(SuperviseLink, peer.StreamAddr())
	if got := s.State(); got != LinkConnected {
		t.Fatalf("state = %v, want connected", got)
	}
	dialer.Close()
	if got := s.State(); got != LinkStopped {
		t.Fatalf("state after Close = %v, want stopped", got)
	}
	if n := s.Attempts(); n != 0 {
		t.Fatalf("%d redials after Close tore the link down, want 0", n)
	}
	if err := dialer.LinkTo(peer.StreamAddr()); !errors.Is(err, errClosed) {
		t.Fatalf("LinkTo on a closed broker = %v, want errClosed", err)
	}
}

func TestLinkStateString(t *testing.T) {
	for s, want := range map[LinkState]string{
		LinkConnected: "connected", LinkDegraded: "degraded",
		LinkReconnecting: "reconnecting", LinkStopped: "stopped",
	} {
		if got := s.String(); got != want {
			t.Fatalf("LinkState(%d).String() = %q, want %q", s, got, want)
		}
	}
}
