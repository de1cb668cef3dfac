// Package ntptime provides the time substrate the discovery scheme depends
// on. The paper: "Timestamps in NaradaBrokering are based on the Network Time
// Protocol (NTP) which ensures that every node in NaradaBrokering is within
// 1-20 msecs of each other. NTP services at nodes are initialized during node
// initializations and generally take between 3-5 seconds before the local
// clock offsets are computed."
//
// Three pieces live here:
//
//   - Clock: the abstraction every other package tells time through, so the
//     same broker/BDN/discovery code runs against the wall clock or against
//     the simulator's scaled model clock.
//   - SkewedClock: a per-node clock offset from its base by a fixed error,
//     modelling unsynchronised hardware clocks.
//   - Service: the NTP-style synchronisation service that estimates a node's
//     offset and exposes corrected UTC timestamps with a residual error in
//     the paper's 1-20 ms envelope.
package ntptime

import (
	"runtime"
	"time"
)

// Clock tells time and sleeps. Durations passed to Sleep/After are in the
// clock's own timescale ("model time" for simulated clocks).
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

// ScaledClock runs model time faster than wall time by a constant factor, so
// experiments whose model windows span multiple seconds (the paper's 4-5 s
// response-collection window) complete in milliseconds of wall time.
// A ScaledClock with Scale 1 behaves like the wall clock.
type ScaledClock struct {
	epochWall  time.Time
	epochModel time.Time
	scale      float64
}

// NewScaledClock returns a clock whose model time starts at epoch and
// advances scale model-seconds per wall second. scale <= 0 is treated as 1.
func NewScaledClock(epoch time.Time, scale float64) *ScaledClock {
	if scale <= 0 {
		scale = 1
	}
	return &ScaledClock{epochWall: time.Now(), epochModel: epoch, scale: scale}
}

// Scale returns the model-seconds-per-wall-second factor.
func (c *ScaledClock) Scale() float64 { return c.scale }

// Now implements Clock.
func (c *ScaledClock) Now() time.Time {
	elapsed := time.Since(c.epochWall)
	return c.epochModel.Add(time.Duration(float64(elapsed) * c.scale))
}

// Sleep implements Clock; d is model time.
func (c *ScaledClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.sleepWall(c.wall(d))
}

// After implements Clock; d is model time and the delivered value is model
// time.
func (c *ScaledClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	go func() {
		c.sleepWall(c.wall(d))
		ch <- c.Now()
	}()
	return ch
}

func (c *ScaledClock) wall(model time.Duration) time.Duration {
	return time.Duration(float64(model) / c.scale)
}

// sleepWall sleeps for a wall duration. At scale > 1, time.Sleep's ~1 ms
// granularity would be amplified into large model-time errors, so the final
// stretch is finished with a yielding spin, giving microsecond precision.
func (c *ScaledClock) sleepWall(d time.Duration) {
	if d <= 0 {
		return
	}
	if c.scale == 1 {
		time.Sleep(d)
		return
	}
	const spinFloor = 2 * time.Millisecond
	deadline := time.Now().Add(d)
	if d > spinFloor {
		time.Sleep(d - spinFloor)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
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
