// Message-path sampling: the decision-at-publish gate that picks which
// messages get full span instrumentation through the fabric. The decision is
// made exactly once, by the first broker (or an instrumented publisher) that
// sees the message; downstream hops only honour the sampled flag carried in
// the event headers. That keeps the cost model trivial to reason about — the
// unsampled path is one atomic add and a modulo, no clock reads, no map
// touches, no allocations — which is what lets sampling stay compiled into
// the lock-free publish fan-out without moving its 0 allocs/op benchmark.
package obs

import (
	"sync/atomic"
	"time"
)

// samplerSlots is the size of the hashed per-topic rate-limit window array.
// Power of two so the topic hash masks instead of dividing. Distinct topics
// that collide share a budget — acceptable for a limiter whose job is to
// bound collector load, not to be fair.
const samplerSlots = 256

// rateSlot is one hashed per-topic token window: a one-second window start
// and the number of sampling decisions granted inside it.
type rateSlot struct {
	windowSec atomic.Int64
	count     atomic.Uint64
}

// Sampler decides at publish time whether a message is traced. Two gates
// compose: a global 1-in-N counter (Every) thins the firehose, then a hashed
// per-topic rate limit (PerTopicPerSec) stops one hot topic from claiming
// the whole span budget. A nil *Sampler never samples, so call sites don't
// branch on configuration.
type Sampler struct {
	every uint64 // sample every Nth publish; 0 disables
	limit uint64 // per-topic-hash decisions per second; 0 = unlimited
	n     atomic.Uint64
	taken atomic.Uint64
	slots [samplerSlots]rateSlot
}

// NewSampler returns a sampler granting roughly one decision per `every`
// publishes, capped at `perTopicPerSec` decisions per topic-hash per second.
// every == 0 disables sampling entirely; perTopicPerSec == 0 removes the
// per-topic cap.
func NewSampler(every, perTopicPerSec uint64) *Sampler {
	return &Sampler{every: every, limit: perTopicPerSec}
}

// Decide reports whether this publish should be sampled. The unsampled path
// is a single atomic increment plus a modulo — zero allocations, no time
// lookup. Only the 1-in-N winners pay for the clock read and the per-topic
// window check. Safe for concurrent use and on a nil receiver.
func (s *Sampler) Decide(topic string) bool {
	if s == nil || s.every == 0 {
		return false
	}
	if s.n.Add(1)%s.every != 0 {
		return false
	}
	if s.limit != 0 {
		slot := &s.slots[topicHash(topic)&(samplerSlots-1)]
		sec := time.Now().Unix()
		if w := slot.windowSec.Load(); w != sec {
			// First decision of a new second resets the window. A lost race
			// means another goroutine reset it; fall through and count.
			if slot.windowSec.CompareAndSwap(w, sec) {
				slot.count.Store(0)
			}
		}
		if slot.count.Add(1) > s.limit {
			return false
		}
	}
	s.taken.Add(1)
	return true
}

// topicHash is FNV-1a over the topic bytes: it picks a sampler rate window.
// It is the same in every process, so a topic's window does not depend on
// the run.
func topicHash(topic string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(topic); i++ {
		h ^= uint64(topic[i])
		h *= 1099511628211
	}
	return h
}

// Taken returns the number of positive sampling decisions made.
func (s *Sampler) Taken() uint64 {
	if s == nil {
		return 0
	}
	return s.taken.Load()
}

// Seen returns the number of publishes considered (sampled or not).
func (s *Sampler) Seen() uint64 {
	if s == nil {
		return 0
	}
	return s.n.Load()
}
