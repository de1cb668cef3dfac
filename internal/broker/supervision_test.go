//go:build goexperiment.synctest

package broker

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"testing/synctest"
	"time"

	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/transport"
)

// scriptedPeer is the far end of one supervised relationship: each dial takes
// the next outcome of plan (nil is a session that stays up until kill), and
// every dial past the plan succeeds. It notes the time of every dial.
type scriptedPeer struct {
	mu       sync.Mutex
	plan     []error
	at       []time.Time
	sessions []chan struct{}
}

var errPeerDown = errors.New("peer down")

func (p *scriptedPeer) dial(string) (<-chan struct{}, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.at = append(p.at, time.Now())
	if n := len(p.at); n <= len(p.plan) && p.plan[n-1] != nil {
		return nil, p.plan[n-1]
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

func (p *scriptedPeer) dials() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.at)
}

// gaps returns the time between each dial and the one before it.
func (p *scriptedPeer) gaps() []time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []time.Duration
	for i := 1; i < len(p.at); i++ {
		out = append(out, p.at[i].Sub(p.at[i-1]))
	}
	return out
}

// failing is a plan of n failed dials.
func failing(n int) []error {
	plan := make([]error, n)
	for i := range plan {
		plan[i] = errPeerDown
	}
	return plan
}

// supervise starts supervising one relationship to p from a broker that is
// never started: supervision needs only its clock, its lock and its
// telemetry. It returns superviseDial's error, once the redial loop waits.
func supervise(t *testing.T, p *scriptedPeer) (*Broker, *Supervisor, error) {
	t.Helper()
	node := transport.NewSimNode(simnet.NewPaperWAN(simnet.Config{Seed: 1}), simnet.SiteUMN, "b", 0)
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()
	b, err := New(node, ntp, Config{
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
	synctest.Wait()
	return b, s, err
}

// wantGaps fails unless the dials came exactly want apart (in ns). Each wait
// is a rung of the ladder jittered by ±20 %, drawn from the relationship's
// seeded stream.
func wantGaps(t *testing.T, p *scriptedPeer, want ...time.Duration) {
	t.Helper()
	if got := p.gaps(); !slices.Equal(got, want) {
		t.Fatalf("time between dials = %v, want %v", got, want)
	}
}

// TestSuperviseInitialSession: a relationship whose first dial made a
// session is supervised from that session: no redial while it lives, one
// rest after it dies.
func TestSuperviseInitialSession(t *testing.T) {
	exact(t, func(t *testing.T) {
		p := &scriptedPeer{}
		_, s, err := supervise(t, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.State(); got != LinkConnected {
			t.Fatalf("state with a live first session = %v, want connected", got)
		}
		time.Sleep(time.Minute)
		if a, n := s.Attempts(), p.dials(); a != 0 || n != 1 {
			t.Fatalf("attempts = %d, dials = %d while the first session lives, want 0 and 1", a, n)
		}
		p.kill()
		time.Sleep(time.Second)
		wantGaps(t, p, time.Minute+88128224)
	})
}

func TestSuperviseRedialsAfterSessionDeath(t *testing.T) {
	exact(t, func(t *testing.T) {
		p := &scriptedPeer{}
		_, s, err := supervise(t, p)
		if err != nil {
			t.Fatal(err)
		}
		p.kill()
		synctest.Wait()
		if got := s.State(); got != LinkDegraded {
			t.Fatalf("state while resting = %v, want degraded", got)
		}
		time.Sleep(time.Second)
		wantGaps(t, p, 88128224)
		if a, ok := s.Attempts(), s.Successes(); a != 1 || ok != 1 || s.State() != LinkConnected {
			t.Fatalf("attempts = %d, successes = %d, state %v, want 1, 1 and connected", a, ok, s.State())
		}
	})
}

// TestSuperviseBacksOffThroughFailures: a loop keeps redialling through
// failed dials, counting each, until one makes a session.
func TestSuperviseBacksOffThroughFailures(t *testing.T) {
	exact(t, func(t *testing.T) {
		// The first dial and three redials fail; the loop waits after each redial.
		p := &scriptedPeer{plan: failing(4)}
		_, s, err := supervise(t, p)
		if err == nil {
			t.Fatal("first dial to a dead peer reported success")
		}
		time.Sleep(time.Minute)
		wantGaps(t, p, 0, 88128224, 216762600, 425227909)
		if a, ok := s.Attempts(), s.Successes(); a != 4 || ok != 1 || s.State() != LinkConnected {
			t.Fatalf("attempts = %d, successes = %d, state %v, want 4, 1 and connected", a, ok, s.State())
		}
	})
}

// TestSuperviseLadder pins the back-off ladder: after each failed dial the
// wait doubles from 100 ms up to 30 s.
func TestSuperviseLadder(t *testing.T) {
	exact(t, func(t *testing.T) {
		p := &scriptedPeer{plan: failing(20)}
		_, s, err := supervise(t, p)
		if err == nil {
			t.Fatal("first dial to a dead peer reported success")
		}
		// The loop redials at once, then waits its way up the ladder:
		// 100, 200, 400, 800, 1600, 3200, 6400, 12800 and 25600 ms, then 30 s.
		time.Sleep(140 * time.Second)
		wantGaps(t, p, 0, 88128224, 216762600, 425227909, 938395259, 1801573881, 3668455049,
			6357846712, 13810310149, 25046612228, 33975212647, 34693568255)
		if got := s.State(); got != LinkReconnecting {
			t.Fatalf("state while backing off = %v, want reconnecting", got)
		}
		if got := s.Successes(); got != 0 {
			t.Fatalf("successes = %d with a dead peer, want 0", got)
		}
	})
}

func TestSuperviseResetsAfterSuccess(t *testing.T) {
	exact(t, func(t *testing.T) {
		// Dials 1–3 fail, 4 makes a session, 5 fails after it died.
		p := &scriptedPeer{plan: []error{errPeerDown, errPeerDown, errPeerDown, nil, errPeerDown}}
		_, s, _ := supervise(t, p)
		time.Sleep(time.Second)
		if got := s.State(); got != LinkConnected {
			t.Fatalf("state after three failures and a session = %v, want connected", got)
		}
		p.kill()
		time.Sleep(time.Second)
		// Two rungs up the ladder, a session killed at 1 s, one rest, and a
		// failed dial that waits the ladder's first rung again.
		wantGaps(t, p, 0, 88128224, 216762600, 801416153, 117299407)
		if got := s.State(); got != LinkConnected {
			t.Fatalf("state = %v, want connected", got)
		}
	})
}

// TestSuperviseFirstDialFailed: a relationship whose first dial failed is
// supervised all the same — the caller gets the error, the loop redials.
func TestSuperviseFirstDialFailed(t *testing.T) {
	exact(t, func(t *testing.T) {
		p := &scriptedPeer{plan: []error{errPeerDown}}
		_, s, err := supervise(t, p)
		if !errors.Is(err, errPeerDown) {
			t.Fatalf("superviseDial = %v, want the first dial's error", err)
		}
		if got, n := s.State(), s.Successes(); got != LinkConnected || n != 1 {
			t.Fatalf("state %v with %d successes, want connected with 1", got, n)
		}
		wantGaps(t, p, 0)
	})
}

// TestSuperviseStopsDuringBackoff: Close ends a back-off without waiting it out.
func TestSuperviseStopsDuringBackoff(t *testing.T) {
	exact(t, func(t *testing.T) {
		p := &scriptedPeer{plan: failing(20)}
		b, s, _ := supervise(t, p)
		start := time.Now()
		b.Close()
		if took := time.Since(start); took != 0 {
			t.Fatalf("Close took %v of a back-off, want none", took)
		}
		if got := s.State(); got != LinkStopped {
			t.Fatalf("state after Close = %v, want stopped", got)
		}
		if n := p.dials(); n != 2 {
			t.Fatalf("%d dials, want 2: the first and one redial", n)
		}
	})
}
