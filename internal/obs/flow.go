// Per-topic flow accounting: a fixed-size space-saving top-k sketch tracking
// the heaviest published topics with per-topic delivered and dropped-by-reason
// tallies. The table answers "where did topic X's messages go" without an
// unbounded per-topic map: K entries, and when a new topic arrives at a full
// table it evicts the current minimum and inherits its count as an error
// bound (the classic Metwally et al. space-saving guarantee: a topic's true
// count is within [count−errBound, count], and any topic with true frequency
// above N/K is guaranteed to be present).
//
// The entries live in an open-addressed table of atomic pointers, four slots
// per tracked topic. A hit is lock-free and allocation-free (hash, probe,
// compare, two atomic adds), so the publish fan-out can account every
// message. A miss is not rare: traffic spread evenly over more than K topics
// misses on every publish. So a miss costs O(K) under a mutex and two
// allocations: it scans the K live entries for the minimum, tombstones that
// entry's slot in place and stores the newcomer. When tombstones pass a
// quarter of the slots the table is rebuilt from the live entries and
// swapped in, which keeps probes short.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Egress drop reasons, the label values on dropped-frame accounting.
const (
	DropQueueFull     = iota // bounded egress queue overflowed (drop-oldest)
	DropConnDown             // connection already failed when the frame arrived
	DropFrameTooLarge        // frame exceeded the transport's size ceiling
	NumDropReasons
)

// DropReasonNames maps drop reason indices to their metric label values.
var DropReasonNames = [NumDropReasons]string{"queue_full", "conn_down", "frame_too_large"}

// FlowOther is the pseudo-topic under which delivered/dropped traffic for
// topics not tracked by the sketch is folded, so totals stay exact even when
// per-topic attribution is approximate.
const FlowOther = "<other>"

// DefaultFlowK is the sketch width: topics tracked simultaneously.
const DefaultFlowK = 64

// FlowEntry is one tracked topic's live counters. Published hands the entry
// back so the data path can stamp it onto in-flight frames and account
// deliveries and drops with plain atomic adds — no repeat topic hashing on
// the egress writers or the overflow-eviction path. An entry evicted from the
// sketch while frames still hold it keeps absorbing their updates harmlessly;
// those tallies are lost to the snapshot, bounded by the egress queue depth.
type FlowEntry struct {
	topic    string
	pubMsgs  atomic.Uint64
	pubBytes atomic.Uint64
	delMsgs  atomic.Uint64
	delBytes atomic.Uint64
	drops    [NumDropReasons]atomic.Uint64
	errBound uint64 // count inherited from the evicted minimum at insertion
}

// Delivered accounts one delivered message of n bytes. Safe on nil.
func (e *FlowEntry) Delivered(n int) {
	if e == nil {
		return
	}
	e.delMsgs.Add(1)
	e.delBytes.Add(uint64(n))
}

// Dropped accounts one dropped message with the given reason. Safe on nil.
func (e *FlowEntry) Dropped(reason int) { e.DroppedN(reason, 1) }

// DroppedN accounts n dropped messages with the given reason, for callers
// that batch eviction storms into one update. Safe on nil.
func (e *FlowEntry) DroppedN(reason int, n uint64) {
	if e == nil || n == 0 || reason < 0 || reason >= NumDropReasons {
		return
	}
	e.drops[reason].Add(n)
}

// FlowSnapshot is one topic's accounting at a point in time.
type FlowSnapshot struct {
	Topic     string                 `json:"topic"`
	PubMsgs   uint64                 `json:"published_msgs"`
	PubBytes  uint64                 `json:"published_bytes"`
	DelMsgs   uint64                 `json:"delivered_msgs"`
	DelBytes  uint64                 `json:"delivered_bytes"`
	Drops     [NumDropReasons]uint64 `json:"-"`
	DropMsgs  uint64                 `json:"dropped_msgs"`
	ErrBound  uint64                 `json:"err_bound"`
	DropQueue uint64                 `json:"dropped_queue_full"`
	DropConn  uint64                 `json:"dropped_conn_down"`
	DropLarge uint64                 `json:"dropped_frame_too_large"`
}

// FlowTable is the space-saving sketch. A nil *FlowTable ignores all updates,
// so call sites don't branch on whether flow accounting is enabled.
type FlowTable struct {
	k     int
	slots atomic.Pointer[[]atomic.Pointer[FlowEntry]] // len a power of two >= 4k

	mu    sync.Mutex   // guards misses: live, tombs and every slot store
	live  []*FlowEntry // the tracked entries, at most k
	tombs int          // slots of the current table holding flowTomb

	// Fold bucket for delivered/dropped traffic on untracked topics.
	otherDelMsgs  atomic.Uint64
	otherDelBytes atomic.Uint64
	otherDrops    [NumDropReasons]atomic.Uint64
}

// flowTomb fills the slot of an evicted entry: probes pass over it, and a
// newcomer may take it.
var flowTomb = new(FlowEntry)

// NewFlowTable returns a sketch tracking up to k topics (DefaultFlowK if
// k <= 0).
func NewFlowTable(k int) *FlowTable {
	if k <= 0 {
		k = DefaultFlowK
	}
	t := &FlowTable{k: k, live: make([]*FlowEntry, 0, k)}
	t.rebuild()
	return t
}

// rebuild places the live entries in a fresh slot table without tombstones
// and swaps it in. Called with t.mu held, or before t is shared.
func (t *FlowTable) rebuild() {
	n := 4
	for n < 4*t.k {
		n <<= 1
	}
	slots := make([]atomic.Pointer[FlowEntry], n)
	for _, e := range t.live {
		_, free := findFlow(slots, e.topic)
		slots[free].Store(e)
	}
	t.slots.Store(&slots)
	t.tombs = 0
}

// findFlow probes slots for topic. It returns the topic's entry and slot, or
// nil and the first slot a new entry for the topic may take: a tombstone, or
// the empty slot that ended the probe. At most k entries and a quarter of
// the slots in tombstones leave at least one slot empty, so probes end.
func findFlow(slots []atomic.Pointer[FlowEntry], topic string) (*FlowEntry, int) {
	mask := uint64(len(slots) - 1)
	free := -1
	for i := topicHash(topic) & mask; ; i = (i + 1) & mask {
		e := slots[i].Load()
		if e != nil && e != flowTomb {
			if e.topic == topic {
				return e, int(i)
			}
			continue
		}
		if free < 0 {
			free = int(i)
		}
		if e == nil {
			return nil, free
		}
	}
}

// Published accounts one published message of n bytes on topic and returns
// the topic's entry for frame stamping. Hits are lock-free (probe + two
// atomic adds); a topic not yet tracked takes the mutex-guarded insert/evict
// path. Returns nil on a nil table.
func (t *FlowTable) Published(topic string, n int) *FlowEntry {
	if t == nil {
		return nil
	}
	if e, _ := findFlow(*t.slots.Load(), topic); e != nil {
		e.pubMsgs.Add(1)
		e.pubBytes.Add(uint64(n))
		return e
	}
	return t.insert(topic, n)
}

func (t *FlowTable) insert(topic string, n int) *FlowEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	slots := *t.slots.Load()
	e, free := findFlow(slots, topic)
	if e != nil { // raced with another inserter
		e.pubMsgs.Add(1)
		e.pubBytes.Add(uint64(n))
		return e
	}
	// The entry outlives the call; the caller's topic may alias a frame buffer.
	e = &FlowEntry{topic: strings.Clone(topic)}
	if len(t.live) >= t.k {
		// Space-saving eviction: replace the minimum-count entry; the
		// newcomer inherits its count as both starting point and error bound.
		mi, minCount := 0, t.live[0].pubMsgs.Load()
		for i, v := range t.live {
			if c := v.pubMsgs.Load(); c < minCount {
				mi, minCount = i, c
			}
		}
		min := t.live[mi]
		_, at := findFlow(slots, min.topic)
		slots[at].Store(flowTomb)
		t.tombs++
		t.live[mi] = t.live[len(t.live)-1]
		t.live = t.live[:len(t.live)-1]
		e.errBound = minCount
		e.pubMsgs.Store(minCount)
		// The evicted topic's delivered/dropped tallies fold into <other> so
		// node totals remain exact.
		t.otherDelMsgs.Add(min.delMsgs.Load())
		t.otherDelBytes.Add(min.delBytes.Load())
		for i := range min.drops {
			t.otherDrops[i].Add(min.drops[i].Load())
		}
	}
	e.pubMsgs.Add(1)
	e.pubBytes.Add(uint64(n))
	// free is still free: the eviction above only turned an entry into a
	// tombstone. Counters are set before the store publishes the entry.
	if slots[free].Load() == flowTomb {
		t.tombs--
	}
	slots[free].Store(e)
	t.live = append(t.live, e)
	if t.tombs > len(slots)/4 {
		t.rebuild()
	}
	return e
}

// Snapshot returns the tracked topics sorted by published count (descending),
// plus a trailing <other> row when untracked traffic was folded there.
func (t *FlowTable) Snapshot() []FlowSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	live := append([]*FlowEntry(nil), t.live...)
	t.mu.Unlock()
	out := make([]FlowSnapshot, 0, len(live)+1)
	for _, e := range live {
		s := FlowSnapshot{
			Topic:    e.topic,
			PubMsgs:  e.pubMsgs.Load(),
			PubBytes: e.pubBytes.Load(),
			DelMsgs:  e.delMsgs.Load(),
			DelBytes: e.delBytes.Load(),
			ErrBound: e.errBound,
		}
		for i := range e.drops {
			s.Drops[i] = e.drops[i].Load()
		}
		s.finishDrops()
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PubMsgs != out[j].PubMsgs {
			return out[i].PubMsgs > out[j].PubMsgs
		}
		return out[i].Topic < out[j].Topic
	})
	other := FlowSnapshot{
		Topic:    FlowOther,
		DelMsgs:  t.otherDelMsgs.Load(),
		DelBytes: t.otherDelBytes.Load(),
	}
	for i := range t.otherDrops {
		other.Drops[i] = t.otherDrops[i].Load()
	}
	other.finishDrops()
	if other.DelMsgs != 0 || other.DropMsgs != 0 {
		out = append(out, other)
	}
	return out
}

// finishDrops derives the per-reason and total drop fields from Drops.
func (s *FlowSnapshot) finishDrops() {
	s.DropQueue = s.Drops[DropQueueFull]
	s.DropConn = s.Drops[DropConnDown]
	s.DropLarge = s.Drops[DropFrameTooLarge]
	s.DropMsgs = s.DropQueue + s.DropConn + s.DropLarge
}
