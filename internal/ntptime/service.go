package ntptime

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Paper-specified envelopes.
const (
	// MinResidual / MaxResidual bound the post-synchronisation clock error:
	// "every node in NaradaBrokering is within 1-20 msecs of each other".
	MinResidual = 1 * time.Millisecond
	MaxResidual = 20 * time.Millisecond
)

// ErrNotSynchronized is returned by UTC before initialization completes.
var ErrNotSynchronized = errors.New("ntptime: service not yet synchronized")

// Service models a node's NTP client. It owns the node's (possibly skewed)
// local clock and, once initialized, serves UTC timestamps.
//
// In a simulation the "true" offset is known (the SkewedClock's skew) and the
// Service estimates it imperfectly, erring within the paper's 1-20 ms
// envelope. A real process models nothing: its system clock is whatever the
// host's own NTP daemon made of it, and the Service hands it back unchanged.
type Service struct {
	local Clock

	mu       sync.Mutex
	synced   bool
	estimate time.Duration // estimated local-clock offset from UTC
	residual time.Duration // signed estimation error, for introspection
}

// NewService creates an NTP service for a node with the given local clock.
// trueSkew is the actual offset of the local clock from UTC (the skew of a
// SkewedClock, or 0 for an honest clock). rng draws the simulated residual
// error; a nil rng means no modelled residual, so the estimate is trueSkew
// itself — what every real process passes, with trueSkew 0.
func NewService(local Clock, trueSkew time.Duration, rng *rand.Rand) *Service {
	var residual time.Duration
	if rng != nil {
		span := int64(MaxResidual - MinResidual)
		residual = MinResidual + time.Duration(rng.Int63n(span+1))
		if rng.Intn(2) == 0 {
			residual = -residual
		}
	}
	// The service's estimate of its own skew misses the truth by residual;
	// corrected time therefore errs from UTC by exactly -residual.
	return &Service{local: local, estimate: trueSkew + residual, residual: residual}
}

// InitImmediately marks the service synchronized. The paper's "3-5 seconds
// before the local clock offsets are computed" is not modelled: no simulation
// ever ran it, and a real process has nothing to wait for.
func (s *Service) InitImmediately() {
	s.mu.Lock()
	s.synced = true
	s.mu.Unlock()
}

// Synchronized reports whether offsets have been computed.
func (s *Service) Synchronized() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.synced
}

// UTC returns the NTP-corrected current time. Before synchronisation it
// returns the uncorrected local time along with ErrNotSynchronized.
func (s *Service) UTC() (time.Time, error) {
	s.mu.Lock()
	synced, est := s.synced, s.estimate
	s.mu.Unlock()
	if !synced {
		return s.local.Now(), ErrNotSynchronized
	}
	return s.local.Now().Add(-est), nil
}

// Residual returns the signed error of the corrected clock against true UTC.
// Exposed so experiments can verify the 1-20 ms envelope holds.
func (s *Service) Residual() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return -s.residual
}

// Offset returns the service's current estimate of the local clock's offset
// from UTC: local time minus Offset() is this node's best-effort UTC. Before
// synchronisation it returns 0 — matching UTC(), which serves uncorrected
// local time until the offsets are computed. Telemetry exporters ship this
// value with every packet so a collector can align span timestamps recorded
// on 1-20 ms-skewed node clocks onto one fabric-wide timeline.
func (s *Service) Offset() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.synced {
		return 0
	}
	return s.estimate
}

// Local returns the node's local clock (used for interval timing, which must
// not jump when offsets are re-estimated).
func (s *Service) Local() Clock { return s.local }
