package main

import "time"

// tickPeriod is the open-loop schedule's grain: tick k is due at
// start + k*tickPeriod and carries rate*tickPeriod operations.
const tickPeriod = 2 * time.Millisecond

// clock is what the schedule needs from time; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// schedule hands out the due time of each tick of an open-loop segment.
//
// This host's timers are coarse (a 50 µs sleep returns after about 1.1 ms),
// so a tick the generator slept for is due at the instant the sleep
// returned: timer overshoot is the generator's, is reported as timerLate,
// and is not charged to the system. A tick the generator reaches after its
// scheduled time without sleeping — because sending the previous ticks was
// pushed back — stays due at its scheduled time, so every wait the system
// imposed is charged in full and no omission is coordinated.
type schedule struct {
	clk    clock
	start  time.Time
	period time.Duration

	timerLate []time.Duration // per slept tick: wake instant - scheduled time
	schedLate []time.Duration // per tick: arrival - scheduled time, 0 if slept
}

func newSchedule(clk clock, start time.Time, period time.Duration) *schedule {
	return &schedule{clk: clk, start: start, period: period}
}

// due blocks until tick k may be sent and returns the time its operations
// are due.
func (s *schedule) due(k int) time.Time {
	sched := s.start.Add(time.Duration(k) * s.period)
	now := s.clk.Now()
	if now.Before(sched) {
		s.clk.Sleep(sched.Sub(now))
		woke := s.clk.Now()
		s.timerLate = append(s.timerLate, woke.Sub(sched))
		s.schedLate = append(s.schedLate, 0)
		return woke
	}
	s.schedLate = append(s.schedLate, now.Sub(sched))
	return sched
}
