package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on, and every sleep overshoots by a
// fixed amount, as this host's timers do.
type fakeClock struct {
	now       time.Time
	overshoot time.Duration
	slept     []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.slept = append(c.slept, d)
	c.now = c.now.Add(d + c.overshoot)
}

func TestScheduleSleptTickIsDueWhenTheSleepReturns(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start, overshoot: 700 * time.Microsecond}
	s := newSchedule(clk, start, tickPeriod)

	// Tick 0 is reached exactly on time: no sleep, due as scheduled.
	if due := s.due(0); !due.Equal(start) {
		t.Fatalf("tick 0 due %v, want %v", due, start)
	}
	// Tick 1 is 2 ms ahead: the generator sleeps, the timer overshoots, and
	// the tick is due at the wake instant — the overshoot is not charged.
	due := s.due(1)
	want := start.Add(tickPeriod + clk.overshoot)
	if !due.Equal(want) {
		t.Fatalf("slept tick due %v, want wake instant %v", due, want)
	}
	if len(clk.slept) != 1 || clk.slept[0] != tickPeriod {
		t.Fatalf("slept %v, want one sleep of %v", clk.slept, tickPeriod)
	}
	if len(s.timerLate) != 1 || s.timerLate[0] != clk.overshoot {
		t.Fatalf("timerLate %v, want [%v]", s.timerLate, clk.overshoot)
	}
	if got := s.schedLate; len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("schedLate %v, want [0 0]", got)
	}
}

func TestScheduleLateTickStaysDueAtItsScheduledTime(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	s := newSchedule(clk, start, tickPeriod)
	s.due(0)
	// The system pushed back: sending tick 0 took 5 ms, so ticks 1 and 2 are
	// reached late. Both stay due at their scheduled times, and nothing
	// sleeps.
	clk.now = start.Add(5 * time.Millisecond)
	for k := 1; k <= 2; k++ {
		want := start.Add(time.Duration(k) * tickPeriod)
		if due := s.due(k); !due.Equal(want) {
			t.Fatalf("late tick %d due %v, want scheduled %v", k, due, want)
		}
	}
	if len(clk.slept) != 0 {
		t.Fatalf("late ticks slept: %v", clk.slept)
	}
	if got, want := s.schedLate[1], 3*time.Millisecond; got != want {
		t.Fatalf("schedLate[1] = %v, want %v", got, want)
	}
	if got, want := s.schedLate[2], 1*time.Millisecond; got != want {
		t.Fatalf("schedLate[2] = %v, want %v", got, want)
	}
	if len(s.timerLate) != 0 {
		t.Fatalf("timerLate %v for ticks that never slept", s.timerLate)
	}
	// Tick 3 is ahead again (due at 6 ms, now 5 ms): back to sleeping.
	if due, want := s.due(3), start.Add(6*time.Millisecond); !due.Equal(want) {
		t.Fatalf("tick 3 due %v, want %v", due, want)
	}
}
