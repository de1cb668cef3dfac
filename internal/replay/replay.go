// Package replay implements the event-replay service the paper lists among
// the NaradaBrokering substrate's capabilities ("reliable delivery, replays,
// (de)compression of large payloads ..."): brokers retain a bounded window
// of recent publishes per topic, and late-joining subscribers can request the
// ones they missed. The store keeps each publish as the encoded frame the
// broker routed, so a replay re-sends bytes and never re-encodes.
package replay

import (
	"sort"
	"strings"
	"sync"

	"narada/internal/topics"
)

// DefaultCapacity is the default retained frames per topic.
const DefaultCapacity = 64

// Store is a bounded per-topic ring buffer of recent publish frames. It is
// safe for concurrent use by the broker's routing goroutines.
type Store struct {
	capacity int

	mu     sync.Mutex
	byTop  map[string]*ring
	stored uint64 // also the arrival sequence of the last frame added
	served uint64
}

// retained is one stored frame with its store-wide arrival sequence, which
// orders frames across topics.
type retained struct {
	seq   uint64
	frame []byte
}

type ring struct {
	buf  []retained
	head int // next slot to overwrite
	full bool
}

// NewStore creates a Store retaining capacity frames per topic
// (<= 0 means DefaultCapacity).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{capacity: capacity, byTop: make(map[string]*ring)}
}

// Capacity returns the per-topic retention window.
func (s *Store) Capacity() int { return s.capacity }

// Add retains one publish frame under its topic. Both are copied: the caller's
// frame is a pooled buffer (and its topic usually a window onto it) that will
// carry another event as soon as the fan-out ends.
func (s *Store) Add(topic string, frame []byte) {
	if topic == "" {
		return
	}
	frame = append([]byte(nil), frame...)
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.byTop[topic]
	if !ok {
		r = &ring{buf: make([]retained, s.capacity)}
		s.byTop[strings.Clone(topic)] = r
	}
	s.stored++
	r.buf[r.head] = retained{seq: s.stored, frame: frame}
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
		r.full = true
	}
}

// Replay returns copies of up to limit retained frames whose topic matches
// the subscription pattern — the most recently added ones across all matching
// topics — oldest first (limit <= 0 means no limit).
func (s *Store) Replay(pattern string, limit int) [][]byte {
	if topics.ValidatePattern(pattern) != nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var hits []retained
	for topic, r := range s.byTop {
		if !topics.Match(pattern, topic) {
			continue
		}
		if r.full {
			hits = append(hits, r.buf...)
		} else {
			hits = append(hits, r.buf[:r.head]...)
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].seq < hits[j].seq })
	if limit > 0 && len(hits) > limit {
		hits = hits[len(hits)-limit:]
	}
	// Hand out copies so callers cannot corrupt retained history.
	out := make([][]byte, len(hits))
	for i, h := range hits {
		out[i] = append([]byte(nil), h.frame...)
	}
	s.served += uint64(len(out))
	return out
}

// TopicCount returns the number of topics with retained history.
func (s *Store) TopicCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byTop)
}

// Stats returns total frames stored and served.
func (s *Store) Stats() (stored, served uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stored, s.served
}
