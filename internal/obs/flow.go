// Per-topic flow accounting: a fixed-size space-saving top-k sketch tracking
// the heaviest published topics with per-topic delivered and dropped-by-reason
// tallies. The table answers "where did topic X's messages go" without an
// unbounded per-topic map: K entries, and when a new topic arrives at a full
// table it evicts the current minimum and inherits its count as an error
// bound (the classic Metwally et al. space-saving guarantee: a topic's true
// count is within [count−errBound, count], and any topic with true frequency
// above N/K is guaranteed to be present).
//
// The K entries are allocated once, in one array, and an evicted entry is
// reused in place. Each entry carries a 64-bit keyed hash of its topic
// (hash/maphash, seeded per table), and an open-addressed table of atomic
// entry pointers, four slots per entry, is probed by that hash alone. A hit
// is lock-free and allocation-free (hash, probe, two atomic adds) and never
// reads a topic string, so the publish fan-out can account every message. A
// miss is not rare: traffic spread evenly over more than K topics misses on
// every publish. So a miss costs O(log K) under a mutex and allocates
// nothing: a min-heap keyed by a lower bound of each entry's count yields the
// minimum (a root whose live count has moved past its key is re-keyed first),
// the minimum's slot is deleted by backward shift, and the entry is recycled
// for the newcomer, whose topic bytes go into a buffer the entry owns. A
// reader racing a backward shift may miss a tracked topic; the locked path
// probes again.
//
// The data path holds a FlowHandle, an entry and the generation it had when
// the handle was taken; recycling an entry starts a new generation. Delivered
// and dropped tallies are stamped with their generation, so a handle whose
// entry has since been recycled folds into <other> rather than crediting the
// entry's next topic, and node totals are exact.
package obs

import (
	"hash/maphash"
	"sort"
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

// A flowTally word holds the low flowTagBits of its entry's generation above
// a flowCountBits count. Adding compares the tag in the same CAS, so an add
// from an old generation can never land after the recycle that reset it.
const (
	flowTagBits   = 8
	flowCountBits = 64 - flowTagBits
	flowCountMask = 1<<flowCountBits - 1
)

// flowTally is a delivered or dropped counter of one entry generation.
type flowTally struct{ w atomic.Uint64 }

// add counts n for generation gen and reports whether it did: not when the
// word belongs to another generation, nor when the count would overflow.
func (c *flowTally) add(gen uint32, n uint64) bool {
	tag := uint64(gen) << flowCountBits
	for {
		old := c.w.Load()
		if old&^flowCountMask != tag || old&flowCountMask+n > flowCountMask {
			return false
		}
		if c.w.CompareAndSwap(old, old+n) {
			return true
		}
	}
}

func (c *flowTally) load() uint64 { return c.w.Load() & flowCountMask }

// reset starts generation gen at zero and returns the previous generation's
// count.
func (c *flowTally) reset(gen uint32) uint64 {
	return c.w.Swap(uint64(gen)<<flowCountBits) & flowCountMask
}

// flowEntry is one of the table's k entries, tracking one topic at a time.
type flowEntry struct {
	key      atomic.Uint64 // keyed hash of the topic: the only thing a probe compares
	gen      atomic.Uint32 // bumped on every recycle; 0 = never tracked a topic
	pubMsgs  atomic.Uint64
	pubBytes atomic.Uint64
	delMsgs  flowTally
	delBytes flowTally
	drops    [NumDropReasons]flowTally
	t        *FlowTable

	// Guarded by t.mu.
	topic    []byte
	errBound uint64 // count inherited from the evicted minimum at insertion
}

// FlowHandle is one topic's flow counters as Published found them. The data
// path stamps it onto in-flight frames and accounts deliveries and drops
// through it — no repeat topic hashing on the egress writers or the
// overflow-eviction path. Once the sketch evicts the topic, the handle's
// tallies fold into <other>. The zero FlowHandle ignores all updates.
type FlowHandle struct {
	e   *flowEntry
	gen uint32
}

// Delivered accounts one delivered message of n bytes.
func (h FlowHandle) Delivered(n int) {
	e := h.e
	if e == nil {
		return
	}
	// The generation check covers a handle held across a multiple of
	// 1<<flowTagBits recycles, which the tag alone would let through.
	if e.gen.Load() != h.gen || !e.delMsgs.add(h.gen, 1) {
		e.t.otherDelMsgs.Add(1)
		e.t.otherDelBytes.Add(uint64(n))
		return
	}
	if !e.delBytes.add(h.gen, uint64(n)) {
		e.t.otherDelBytes.Add(uint64(n))
	}
}

// Dropped accounts one dropped message with the given reason.
func (h FlowHandle) Dropped(reason int) {
	e := h.e
	if e == nil || reason < 0 || reason >= NumDropReasons {
		return
	}
	if e.gen.Load() != h.gen || !e.drops[reason].add(h.gen, 1) {
		e.t.otherDrops[reason].Add(1)
	}
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
	seed    maphash.Seed
	slots   []atomic.Pointer[flowEntry] // len a power of two >= 4k
	entries []flowEntry                 // the k entries, allocated once

	mu   sync.Mutex      // guards misses: heap, every slot store, topic and errBound
	heap []flowHeapEntry // min-heap over all k entries, untracked ones at count 0

	// Fold bucket for delivered/dropped traffic on untracked topics.
	otherDelMsgs  atomic.Uint64
	otherDelBytes atomic.Uint64
	otherDrops    [NumDropReasons]atomic.Uint64
}

// flowHeapEntry keys an entry by a lower bound of its published count: hits
// only add, so the bound goes stale upwards and is refreshed at the root.
type flowHeapEntry struct {
	count uint64
	e     *flowEntry
}

// NewFlowTable returns a sketch tracking up to k topics (DefaultFlowK if
// k <= 0).
func NewFlowTable(k int) *FlowTable {
	if k <= 0 {
		k = DefaultFlowK
	}
	n := 4
	for n < 4*k {
		n <<= 1
	}
	t := &FlowTable{
		seed:    maphash.MakeSeed(),
		slots:   make([]atomic.Pointer[flowEntry], n),
		entries: make([]flowEntry, k),
		heap:    make([]flowHeapEntry, k),
	}
	for i := range t.entries {
		t.entries[i].t = t
		t.heap[i].e = &t.entries[i]
	}
	return t
}

// find probes the slots for key and returns its entry and that entry's
// generation, or nil. Without t.mu it may miss an entry that a backward
// shift is moving. At most k entries in at least 4k slots leave empty slots,
// so probes end.
func (t *FlowTable) find(key uint64) (*flowEntry, uint32) {
	mask := uint64(len(t.slots) - 1)
	for i := key & mask; ; i = (i + 1) & mask {
		e := t.slots[i].Load()
		if e == nil {
			return nil, 0
		}
		// gen before key: a recycle stores the new key before the new
		// generation, so a handle never pairs an old topic with a new one.
		gen := e.gen.Load()
		if e.key.Load() == key {
			return e, gen
		}
	}
}

// Published accounts one published message of n bytes on topic and returns
// the topic's handle for frame stamping. Hits are lock-free (probe + two
// atomic adds); a topic not yet tracked takes the mutex-guarded insert/evict
// path. Returns the zero handle on a nil table.
func (t *FlowTable) Published(topic string, n int) FlowHandle {
	if t == nil {
		return FlowHandle{}
	}
	key := maphash.String(t.seed, topic)
	if e, gen := t.find(key); e != nil {
		e.pubMsgs.Add(1)
		e.pubBytes.Add(uint64(n))
		return FlowHandle{e, gen}
	}
	return t.insert(key, topic, n)
}

func (t *FlowTable) insert(key uint64, topic string, n int) FlowHandle {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, gen := t.find(key); e != nil { // raced with another inserter or a shift
		e.pubMsgs.Add(1)
		e.pubBytes.Add(uint64(n))
		return FlowHandle{e, gen}
	}
	// Space-saving eviction: recycle the minimum-count entry (an untracked
	// one while the table fills); the newcomer inherits its count as both
	// starting point and error bound.
	min := t.minCount()
	e := t.heap[0].e
	if e.gen.Load() != 0 {
		t.unplace(e)
	}
	// The new key goes in before the new generation (see find), and the
	// tallies restart under the new generation before any handle carries it.
	// The evicted topic's delivered/dropped tallies fold into <other> so
	// node totals remain exact.
	e.key.Store(key)
	gen := e.gen.Load() + 1
	if gen == 0 { // 0 means never tracked
		gen = 1
	}
	t.otherDelMsgs.Add(e.delMsgs.reset(gen))
	t.otherDelBytes.Add(e.delBytes.reset(gen))
	for i := range e.drops {
		t.otherDrops[i].Add(e.drops[i].reset(gen))
	}
	e.gen.Store(gen)
	e.pubMsgs.Store(min + 1)
	e.pubBytes.Store(uint64(n))
	e.errBound = min
	// The caller's topic may alias a frame buffer; the entry keeps a copy.
	e.topic = append(e.topic[:0], topic...)
	t.heap[0].count = min + 1
	t.down()
	t.place(e)
	return FlowHandle{e, gen}
}

// minCount returns the least published count, at the heap's root. A root
// whose live count has passed its key is re-keyed and sifted down until the
// root is current; every other key is at most its live count, so a current
// root is a minimum. Called with t.mu held.
func (t *FlowTable) minCount() uint64 {
	for {
		r := &t.heap[0]
		c := r.e.pubMsgs.Load()
		if c <= r.count {
			return c
		}
		r.count = c
		t.down()
	}
}

// down restores the heap order after the root's key grew.
func (t *FlowTable) down() {
	h, i := t.heap, 0
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].count < h[l].count {
			m = r
		}
		if h[i].count <= h[m].count {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// place stores e in the first empty slot of its key's probe sequence. Called
// with t.mu held.
func (t *FlowTable) place(e *flowEntry) {
	mask := uint64(len(t.slots) - 1)
	i := e.key.Load() & mask
	for t.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	t.slots[i].Store(e)
}

// unplace deletes e's slot by backward shift: each later entry of the probe
// run whose home slot does not lie in the gap moves back into it, and the
// last gap is emptied. No slot of the run turns empty before the run's end,
// so a concurrent probe misses only an entry moved back past it. Called with
// t.mu held.
func (t *FlowTable) unplace(e *flowEntry) {
	mask := uint64(len(t.slots) - 1)
	i := e.key.Load() & mask
	for t.slots[i].Load() != e {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		m := t.slots[j].Load()
		if m == nil {
			break
		}
		if home := m.key.Load() & mask; (j-home)&mask >= (j-i)&mask {
			t.slots[i].Store(m)
			i = j
		}
	}
	t.slots[i].Store(nil)
}

// Snapshot returns the tracked topics sorted by published count (descending),
// plus a trailing <other> row when untracked traffic was folded there.
func (t *FlowTable) Snapshot() []FlowSnapshot {
	if t == nil {
		return nil
	}
	out := make([]FlowSnapshot, 0, len(t.entries)+1)
	t.mu.Lock()
	for i := range t.entries {
		e := &t.entries[i]
		if e.gen.Load() == 0 {
			continue
		}
		s := FlowSnapshot{
			Topic:    string(e.topic),
			PubMsgs:  e.pubMsgs.Load(),
			PubBytes: e.pubBytes.Load(),
			DelMsgs:  e.delMsgs.load(),
			DelBytes: e.delBytes.load(),
			ErrBound: e.errBound,
		}
		for i := range e.drops {
			s.Drops[i] = e.drops[i].load()
		}
		s.finishDrops()
		out = append(out, s)
	}
	// Read under the lock, so a tally folded by a concurrent eviction is
	// counted once: in its row or here.
	other := FlowSnapshot{
		Topic:    FlowOther,
		DelMsgs:  t.otherDelMsgs.Load(),
		DelBytes: t.otherDelBytes.Load(),
	}
	for i := range t.otherDrops {
		other.Drops[i] = t.otherDrops[i].Load()
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].PubMsgs != out[j].PubMsgs {
			return out[i].PubMsgs > out[j].PubMsgs
		}
		return out[i].Topic < out[j].Topic
	})
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
