// Package ntptime provides the time substrate the discovery scheme depends
// on. The paper: "Timestamps in NaradaBrokering are based on the Network Time
// Protocol (NTP) which ensures that every node in NaradaBrokering is within
// 1-20 msecs of each other. NTP services at nodes are initialized during node
// initializations and generally take between 3-5 seconds before the local
// clock offsets are computed."
//
// Four pieces live here:
//
//   - Clock: the abstraction every other package tells time through, so the
//     same broker/BDN/discovery code runs against the wall clock or against
//     the simulator's model clock.
//   - EpochClock: the simulator's model clock, a fixed epoch plus the time
//     since the network was made.
//   - SkewedClock: a per-node clock offset from its base by a fixed error,
//     modelling unsynchronised hardware clocks.
//   - Service: the NTP-style synchronisation service that estimates a node's
//     offset and exposes corrected UTC timestamps with a residual error in
//     the paper's 1-20 ms envelope.
package ntptime

import "time"

// Clock tells time and sleeps. Durations passed to Sleep/After are this
// clock's time ("model time" for the simulator's clocks).
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks for d of this clock's time.
	Sleep(d time.Duration)
	// After returns a channel that delivers this clock's time once d has
	// elapsed on this clock.
	After(d time.Duration) <-chan time.Time
}

// SystemClock is the wall clock; the zero value is ready to use.
type SystemClock struct{}

// Now implements Clock.
func (SystemClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (SystemClock) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (SystemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// EpochClock reads a fixed epoch plus the time since it was made, and sleeps
// on package time: the simulator's model clock, which in a synctest bubble
// runs on the bubble's clock.
type EpochClock struct{ epoch, start time.Time }

// NewEpochClock returns a clock that reads epoch now.
func NewEpochClock(epoch time.Time) *EpochClock {
	return &EpochClock{epoch: epoch, start: time.Now()}
}

// Now implements Clock.
func (c *EpochClock) Now() time.Time { return c.epoch.Add(time.Since(c.start)) }

// Sleep implements Clock.
func (*EpochClock) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock; the delivered value is this clock's time.
func (c *EpochClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	go func() {
		time.Sleep(d)
		ch <- c.Now()
	}()
	return ch
}

// SkewedClock offsets a base clock by a fixed skew, modelling a node whose
// hardware clock disagrees with true time. Sleeping is delegated unchanged.
type SkewedClock struct {
	base Clock
	skew time.Duration
}

// NewSkewedClock wraps base so that Now() = base.Now() + skew.
func NewSkewedClock(base Clock, skew time.Duration) *SkewedClock {
	return &SkewedClock{base: base, skew: skew}
}

// Skew returns the configured offset from the base clock.
func (c *SkewedClock) Skew() time.Duration { return c.skew }

// Now implements Clock.
func (c *SkewedClock) Now() time.Time { return c.base.Now().Add(c.skew) }

// Sleep implements Clock.
func (c *SkewedClock) Sleep(d time.Duration) { c.base.Sleep(d) }

// After implements Clock.
func (c *SkewedClock) After(d time.Duration) <-chan time.Time {
	out := make(chan time.Time, 1)
	in := c.base.After(d)
	go func() { out <- (<-in).Add(c.skew) }()
	return out
}
