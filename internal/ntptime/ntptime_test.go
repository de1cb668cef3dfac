package ntptime

import (
	"math/rand"
	"testing"
	"time"
)

// stillClock always reads the time it was made from; no test sleeps on it.
type stillClock time.Time

func (c stillClock) Now() time.Time                     { return time.Time(c) }
func (stillClock) Sleep(time.Duration)                  { panic("stillClock does not sleep") }
func (stillClock) After(time.Duration) <-chan time.Time { panic("stillClock does not sleep") }

func TestSystemClockMonotonicEnough(t *testing.T) {
	var c SystemClock
	a := c.Now()
	c.Sleep(time.Millisecond)
	b := c.Now()
	if !b.After(a) {
		t.Fatalf("time did not advance: %v -> %v", a, b)
	}
}

func TestSkewedClock(t *testing.T) {
	base := stillClock(time.Unix(1000, 0))
	skew := 15 * time.Millisecond
	c := NewSkewedClock(base, skew)
	if got := c.Now().Sub(base.Now()); got != skew {
		t.Fatalf("skew observed %v, want %v", got, skew)
	}
	if c.Skew() != skew {
		t.Fatalf("Skew() = %v", c.Skew())
	}
}

func TestServiceResidualEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		skew := time.Duration(rng.Int63n(int64(40*time.Millisecond))) - 20*time.Millisecond
		base := stillClock(time.Unix(5000, 0))
		s := NewService(NewSkewedClock(base, skew), skew, rng)
		s.InitImmediately()
		res := s.Residual()
		if res < 0 {
			res = -res
		}
		if res < MinResidual || res > MaxResidual {
			t.Fatalf("residual %v outside [%v, %v]", res, MinResidual, MaxResidual)
		}
	}
}

func TestServiceCorrectsSkew(t *testing.T) {
	base := stillClock(time.Date(2005, 7, 1, 12, 0, 0, 0, time.UTC))
	skew := 500 * time.Millisecond // gross hardware skew
	local := NewSkewedClock(base, skew)
	s := NewService(local, skew, rand.New(rand.NewSource(7)))
	s.InitImmediately()
	utc, err := s.UTC()
	if err != nil {
		t.Fatal(err)
	}
	errAgainstTruth := utc.Sub(base.Now())
	if errAgainstTruth < 0 {
		errAgainstTruth = -errAgainstTruth
	}
	if errAgainstTruth > MaxResidual {
		t.Fatalf("corrected clock off by %v, want <= %v", errAgainstTruth, MaxResidual)
	}
}

func TestServiceBeforeSync(t *testing.T) {
	base := stillClock(time.Unix(0, 0))
	s := NewService(base, 0, nil)
	if s.Synchronized() {
		t.Fatal("freshly created service claims synchronized")
	}
	if _, err := s.UTC(); err != ErrNotSynchronized {
		t.Fatalf("err = %v, want ErrNotSynchronized", err)
	}
}

// TestHonestClockIsNotMadeWorse: a real process has an honest clock and no
// modelled peering, so its service must hand that clock back untouched — no
// residual, no offset, UTC equal to the clock's own reading.
func TestHonestClockIsNotMadeWorse(t *testing.T) {
	c := stillClock(time.Date(2026, 10, 3, 12, 0, 0, 0, time.UTC))
	s := NewService(c, 0, nil)
	s.InitImmediately()
	if got := s.Offset(); got != 0 {
		t.Errorf("Offset() = %v, want 0", got)
	}
	if got := s.Residual(); got != 0 {
		t.Errorf("Residual() = %v, want 0", got)
	}
	if utc, err := s.UTC(); err != nil || !utc.Equal(c.Now()) {
		t.Errorf("UTC() = %v, %v; clock reads %v", utc, err, c.Now())
	}
}

func TestTwoNodesWithinPaperBound(t *testing.T) {
	// The property the discovery latency estimator relies on: any two
	// synchronized nodes read UTC within ~2*MaxResidual of each other.
	rng := rand.New(rand.NewSource(11))
	base := stillClock(time.Unix(77777, 0))
	mk := func(skew time.Duration) *Service {
		s := NewService(NewSkewedClock(base, skew), skew, rng)
		s.InitImmediately()
		return s
	}
	a, b := mk(300*time.Millisecond), mk(-450*time.Millisecond)
	ta, errA := a.UTC()
	tb, errB := b.UTC()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	diff := ta.Sub(tb)
	if diff < 0 {
		diff = -diff
	}
	if diff > 2*MaxResidual {
		t.Fatalf("nodes disagree by %v, want <= %v", diff, 2*MaxResidual)
	}
}

// TestServiceOffset pins the exporter contract: Offset is 0 before the sync
// completes, and afterwards local.Now().Add(-Offset()) equals the corrected
// UTC() — which is what a collector relies on when aligning span timestamps.
func TestServiceOffset(t *testing.T) {
	base := stillClock(time.Date(2005, 7, 1, 12, 0, 0, 0, time.UTC))
	skew := -350 * time.Millisecond
	local := NewSkewedClock(base, skew)
	s := NewService(local, skew, rand.New(rand.NewSource(11)))
	if got := s.Offset(); got != 0 {
		t.Fatalf("pre-sync Offset = %v, want 0", got)
	}
	s.InitImmediately()
	off := s.Offset()
	if off == 0 {
		t.Fatal("post-sync Offset is still 0 despite a 350ms skew")
	}
	utc, err := s.UTC()
	if err != nil {
		t.Fatal(err)
	}
	if aligned := local.Now().Add(-off); !aligned.Equal(utc) {
		t.Fatalf("local - Offset = %v, UTC() = %v; alignment identity broken", aligned, utc)
	}
	// The estimate misses true skew by exactly the residual.
	if miss := off - skew; miss != -s.Residual() {
		t.Fatalf("Offset error vs true skew = %v, want residual %v", miss, -s.Residual())
	}
}
