package obs

import (
	"sync"
	"time"
)

// Control-plane event types. The journal is a typed record of fabric state
// transitions — link lifecycle, advertisement lifecycle, alert state machine,
// fault injection — as opposed to the continuous signals (metrics, flows)
// and per-request signals (spans) the rest of the package carries.
const (
	EventLinkUp           = "link_up"
	EventLinkDown         = "link_down"
	EventReconnectAttempt = "reconnect_attempt"
	EventAdRegistered     = "ad_registered"
	EventAdRefreshed      = "ad_refreshed"
	EventAdExpired        = "ad_expired"
	EventAdSwept          = "ad_swept"
	EventAlertFiring      = "alert_firing"
	EventAlertResolved    = "alert_resolved"
	EventFaultInjected    = "fault_injected"
	EventNodeStart        = "node_start"
	EventNodeStop         = "node_stop"
	EventWALSnapshot      = "wal_snapshot"
	EventWALReplay        = "wal_replay"
)

// Event is one journal entry. The node identity is carried by the scrape
// document (one journal per process), not per event. Seq is assigned by the
// emitting journal and is strictly monotonic per node, so the collector can
// detect events lost to ring overwrite as sequence gaps. At is the emitter's
// local clock; NTP alignment happens downstream using the document's offset.
type Event struct {
	Seq     uint64
	Type    string
	At      time.Time
	Subject string // peer address, topic, rule name, fault name — type-dependent
	Detail  string // free-form context ("role=bdn", "ttl=30s", "expired=3")
}

// DefaultJournalCapacity bounds a journal created with capacity <= 0.
const DefaultJournalCapacity = 1024

// Journal is a bounded ring of control-plane events. Emit is cheap (one
// short mutex hold, no allocation beyond the amortised ring) and never
// blocks on I/O: a collector reads the ring on its own schedule (Since), and
// when producers outrun the reads the oldest events are overwritten.
// Overwrites surface downstream as sequence gaps, so loss is visible rather
// than silent. All methods are nil-safe so call sites need no
// journal-enabled branch.
type Journal struct {
	clock func() time.Time

	mu      sync.Mutex
	ring    *Ring[Event]
	seq     uint64
	dropped uint64
}

// NewJournal returns a journal holding at most capacity events.
// A nil clock means time.Now.
func NewJournal(capacity int, clock func() time.Time) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	if clock == nil {
		clock = time.Now
	}
	return &Journal{clock: clock, ring: NewRing[Event](capacity)}
}

// Emit appends a typed event stamped with the next sequence number and the
// journal's clock. When the ring is full the oldest event is overwritten and
// counted as dropped.
func (j *Journal) Emit(typ, subject, detail string) {
	if j == nil {
		return
	}
	now := j.clock()
	j.mu.Lock()
	j.seq++
	// An evicted event's seq is gone for good; the collector sees the gap.
	if _, evicted := j.ring.Push(Event{Seq: j.seq, Type: typ, At: now, Subject: subject, Detail: detail}); evicted {
		j.dropped++
	}
	j.mu.Unlock()
}

// Since returns the retained events with a sequence number above seq, in
// sequence order, leaving the ring as it was. It returns nil when the journal
// is nil or holds nothing newer.
func (j *Journal) Since(seq uint64) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	j.ring.Each(func(ev Event) {
		if ev.Seq > seq {
			out = append(out, ev)
		}
	})
	return out
}

// Len reports the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.Len()
}

// Dropped reports how many events have been overwritten.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Seq reports the last assigned sequence number.
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}
