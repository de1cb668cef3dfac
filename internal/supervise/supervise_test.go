package supervise

import (
	"errors"
	"sync"
	"testing"
	"time"

	"narada/internal/ntptime"
)

// fastPolicy keeps waits tiny so tests run on the wall clock.
func fastPolicy() Policy {
	return Policy{
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.1,
	}
}

// fakeEndpoint scripts dial outcomes: each element of plan is the error for
// one attempt (nil = success). Sessions stay open until killSession.
type fakeEndpoint struct {
	mu       sync.Mutex
	plan     []error
	attempts int
	sessions []chan struct{}
}

func (f *fakeEndpoint) dial() (<-chan struct{}, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var err error
	if f.attempts < len(f.plan) {
		err = f.plan[f.attempts]
	}
	f.attempts++
	if err != nil {
		return nil, err
	}
	s := make(chan struct{})
	f.sessions = append(f.sessions, s)
	return s, nil
}

func (f *fakeEndpoint) killSession(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	close(f.sessions[i])
}

func (f *fakeEndpoint) sessionCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.sessions)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestRunnerRedialsAfterSessionDeath(t *testing.T) {
	ep := &fakeEndpoint{}
	var states []State
	var mu sync.Mutex
	r := New(RunnerConfig{
		Target: "peer",
		Policy: fastPolicy(),
		Clock:  ntptime.SystemClock{},
		Dial:   ep.dial,
		OnState: func(s State) {
			mu.Lock()
			states = append(states, s)
			mu.Unlock()
		},
	})
	go r.Run()
	defer func() { r.Stop(); <-r.Done() }()

	waitFor(t, "first session", func() bool { return ep.sessionCount() == 1 })
	waitFor(t, "connected", func() bool { return r.State() == Connected })
	ep.killSession(0)
	waitFor(t, "second session", func() bool { return ep.sessionCount() == 2 })
	waitFor(t, "reconnected", func() bool { return r.State() == Connected })

	if got := r.Successes(); got != 2 {
		t.Fatalf("successes = %d, want 2", got)
	}
	mu.Lock()
	defer mu.Unlock()
	// The death must have been observable: Degraded appears between the two
	// Connected transitions.
	sawDegraded := false
	for _, s := range states {
		if s == Degraded {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Fatalf("state transitions %v never passed through Degraded", states)
	}
}

func TestRunnerBacksOffThroughFailures(t *testing.T) {
	errDown := errors.New("down")
	ep := &fakeEndpoint{plan: []error{errDown, errDown, errDown}}
	r := New(RunnerConfig{
		Target: "peer",
		Policy: fastPolicy(),
		Clock:  ntptime.SystemClock{},
		Dial:   ep.dial,
	})
	go r.Run()
	defer func() { r.Stop(); <-r.Done() }()

	waitFor(t, "session after failures", func() bool { return ep.sessionCount() == 1 })
	if got := r.Attempts(); got < 4 {
		t.Fatalf("attempts = %d, want >= 4 (3 failures + success)", got)
	}
	// The dial returning its session and the runner publishing Connected are
	// two steps; wait for the second instead of racing it.
	waitFor(t, "connected", func() bool { return r.State() == Connected })
}

func TestRunnerGivesUpAtMaxAttempts(t *testing.T) {
	errDown := errors.New("down")
	ep := &fakeEndpoint{plan: []error{errDown, errDown, errDown, errDown, errDown, errDown}}
	p := fastPolicy()
	p.MaxAttempts = 3
	r := New(RunnerConfig{
		Target: "peer",
		Policy: p,
		Clock:  ntptime.SystemClock{},
		Dial:   ep.dial,
	})
	done := make(chan struct{})
	go func() { r.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("runner did not give up")
	}
	if got := r.Attempts(); got != 3 {
		t.Fatalf("attempts = %d, want exactly 3", got)
	}
	if r.State() != Stopped {
		t.Fatalf("state = %v, want Stopped", r.State())
	}
}

func TestRunnerBreakerTripsAndRecovers(t *testing.T) {
	errDown := errors.New("down")
	ep := &fakeEndpoint{plan: []error{errDown, errDown, errDown, errDown}}
	p := fastPolicy()
	p.BreakerThreshold = 2
	p.BreakerCooldown = 2 * time.Millisecond
	r := New(RunnerConfig{
		Target: "peer",
		Policy: p,
		Clock:  ntptime.SystemClock{},
		Dial:   ep.dial,
	})
	go r.Run()
	defer func() { r.Stop(); <-r.Done() }()

	waitFor(t, "session after breaker", func() bool { return ep.sessionCount() == 1 })
	if got := r.BreakerTrips(); got != 2 {
		t.Fatalf("breaker trips = %d, want 2 (4 failures / threshold 2)", got)
	}
}

func TestRunnerSupervisesInitialSession(t *testing.T) {
	initial := make(chan struct{})
	ep := &fakeEndpoint{}
	r := New(RunnerConfig{
		Target:  "peer",
		Policy:  fastPolicy(),
		Clock:   ntptime.SystemClock{},
		Dial:    ep.dial,
		Initial: initial,
	})
	if r.State() != Connected {
		t.Fatalf("initial state = %v, want Connected", r.State())
	}
	go r.Run()
	defer func() { r.Stop(); <-r.Done() }()

	// No dialing while the initial session is healthy.
	time.Sleep(10 * time.Millisecond)
	if got := r.Attempts(); got != 0 {
		t.Fatalf("attempts = %d before initial session died, want 0", got)
	}
	close(initial)
	waitFor(t, "redial after initial death", func() bool { return ep.sessionCount() == 1 })
}

func TestRunnerStopsCleanly(t *testing.T) {
	ep := &fakeEndpoint{}
	r := New(RunnerConfig{
		Target: "peer",
		Policy: fastPolicy(),
		Clock:  ntptime.SystemClock{},
		Dial:   ep.dial,
	})
	go r.Run()
	waitFor(t, "session", func() bool { return ep.sessionCount() == 1 })
	r.Stop()
	select {
	case <-r.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("runner did not stop")
	}
	if r.State() != Stopped {
		t.Fatalf("state = %v, want Stopped", r.State())
	}
	// Stop is idempotent.
	r.Stop()
}

func TestRunnerStopDuringBackoff(t *testing.T) {
	errDown := errors.New("down")
	ep := &fakeEndpoint{plan: []error{errDown, errDown, errDown, errDown, errDown}}
	p := fastPolicy()
	p.BaseBackoff = time.Hour // Stop must interrupt this wait.
	p.MaxBackoff = time.Hour
	r := New(RunnerConfig{
		Target: "peer",
		Policy: p,
		Clock:  ntptime.SystemClock{},
		Dial:   ep.dial,
	})
	go r.Run()
	waitFor(t, "first failure", func() bool { return r.Attempts() >= 1 })
	r.Stop()
	select {
	case <-r.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not interrupt the backoff sleep")
	}
}

func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.withDefaults()
	if p.BaseBackoff != 100*time.Millisecond || p.MaxBackoff != 30*time.Second {
		t.Fatalf("backoff defaults wrong: %+v", p)
	}
	if p.Multiplier != 2 || p.Jitter != 0.2 {
		t.Fatalf("growth defaults wrong: %+v", p)
	}
	if p.BreakerCooldown != 4*p.MaxBackoff {
		t.Fatalf("breaker cooldown default wrong: %+v", p)
	}
	// MaxBackoff never drops below BaseBackoff.
	p = Policy{BaseBackoff: time.Minute, MaxBackoff: time.Second}.withDefaults()
	if p.MaxBackoff != time.Minute {
		t.Fatalf("MaxBackoff = %v, want clamped to BaseBackoff", p.MaxBackoff)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Connected: "connected", Degraded: "degraded",
		Reconnecting: "reconnecting", Stopped: "stopped",
	} {
		if got := s.String(); got != want {
			t.Fatalf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}
