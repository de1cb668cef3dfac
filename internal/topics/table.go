package topics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Table is a concurrent subscription registry mapping patterns to subscriber
// identities. It is built for a read-dominated workload: the registry is an
// immutable segment-trie snapshot behind an atomic pointer, so the match
// methods — the publish fast path of the whole substrate — never acquire a
// lock and never contend with subscription churn. Subscribe and Unsubscribe
// serialise on a writer mutex, path-copy the trie (every untouched node is
// shared with the previous snapshot) and publish the new root with a single
// atomic swap. A matcher that loaded the old root keeps reading a consistent
// generation; nodes reachable from a published snapshot are never mutated.
//
// Each registration may carry an opaque attachment (SubscribeValue), which
// the match path hands back without any side lookup — brokers attach the
// subscriber's delivery queue so a publish touches no other shared state.
type Table struct {
	snap atomic.Pointer[snapshot]

	mu    sync.Mutex                     // serialises writers
	byID  map[string]map[string]struct{} // subscriber -> patterns (bulk removal)
	index map[string]int32               // subscriber -> dense dedup index
	free  []int32                        // recycled dedup indexes
	width int32                          // high-water dedup index bound
}

// snapshot is one immutable generation of the subscription trie.
type snapshot struct {
	root  *trieNode
	width int32 // scratch size needed to dedup this generation
}

// entry is one registration as seen by the match path.
type entry struct {
	id  string
	idx int32 // dense per-subscriber index for O(1) match dedup
	val any   // opaque attachment (e.g. a delivery queue); may be nil
}

// trieNode is a node of an immutable snapshot. Writers copy every node on
// the path they change and replace (never mutate) its children levels and
// entry slices, so concurrent matchers can walk any published generation
// without locks.
type trieNode struct {
	kids   *level    // exact-segment children (children.go); nil when none
	star   *trieNode // the "*" child, kept apart so a match step is one lookup
	ids    []entry   // registrations whose pattern ends exactly here
	anyIDs []entry   // registrations with a terminal ** here
}

// child returns the node's child for a pattern segment, or nil.
func (n *trieNode) child(seg string) *trieNode {
	if seg == WildcardOne {
		return n.star
	}
	return n.kids.get(seg, hashSegment(seg))
}

// setChild binds seg to c in a node not yet published; a nil c removes it.
func (n *trieNode) setChild(seg string, c *trieNode) {
	switch {
	case seg == WildcardOne:
		n.star = c
	case c == nil:
		n.kids = n.kids.del(seg, hashSegment(seg), 0)
	default:
		n.kids = n.kids.put(seg, hashSegment(seg), c, 0)
	}
}

func (n *trieNode) empty() bool {
	return n.kids == nil && n.star == nil && len(n.ids) == 0 && len(n.anyIDs) == 0
}

// NewTable returns an empty subscription table.
func NewTable() *Table {
	t := &Table{
		byID:  make(map[string]map[string]struct{}),
		index: make(map[string]int32),
	}
	t.snap.Store(&snapshot{root: &trieNode{}})
	return t
}

// Subscribe registers the subscriber id for the pattern.
// Duplicate registrations are idempotent.
func (t *Table) Subscribe(id, pattern string) error {
	_, err := t.SubscribeValue(id, pattern, nil)
	return err
}

// SubscribeValue registers the subscriber id for the pattern with an opaque
// attachment that the match path returns alongside the id (MatchEachUnique).
// Duplicate (id, pattern) registrations are idempotent but refresh a non-nil
// attachment, so a re-registering subscriber can hand in its new delivery
// queue. It reports whether a new registration was created.
func (t *Table) SubscribeValue(id, pattern string, val any) (bool, error) {
	if err := ValidatePattern(pattern); err != nil {
		return false, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	pats := t.byID[id]
	if _, dup := pats[pattern]; dup {
		if val != nil {
			t.publishLocked(insertPath(t.snap.Load().root, pattern,
				entry{id: id, idx: t.index[id], val: val}))
		}
		return false, nil
	}
	if pats == nil {
		pats = make(map[string]struct{})
		t.byID[id] = pats
	}
	pats[pattern] = struct{}{}

	e := entry{id: id, idx: t.indexLocked(id), val: val}
	t.publishLocked(insertPath(t.snap.Load().root, pattern, e))
	return true, nil
}

// Unsubscribe removes one (id, pattern) registration; it reports whether the
// registration existed.
func (t *Table) Unsubscribe(id, pattern string) bool {
	if ValidatePattern(pattern) != nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.removeLocked(id, pattern)
}

// UnsubscribeAll removes every registration of the subscriber, returning the
// number removed.
func (t *Table) UnsubscribeAll(id string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	pats := t.byID[id]
	patterns := make([]string, 0, len(pats))
	for pattern := range pats {
		patterns = append(patterns, pattern)
	}
	n := 0
	for _, pattern := range patterns {
		if t.removeLocked(id, pattern) {
			n++
		}
	}
	return n
}

// indexLocked returns the subscriber's dense dedup index, assigning one on
// first use (recycled indexes first, so the scratch bound stays tight).
func (t *Table) indexLocked(id string) int32 {
	if idx, ok := t.index[id]; ok {
		return idx
	}
	var idx int32
	if n := len(t.free); n > 0 {
		idx = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		idx = t.width
		t.width++
	}
	t.index[id] = idx
	return idx
}

// publishLocked swaps in a new trie generation. Caller holds mu.
func (t *Table) publishLocked(root *trieNode) {
	t.snap.Store(&snapshot{root: root, width: t.width})
}

// removeLocked deletes one registration, recycles the subscriber's dedup
// index when its last pattern goes, and publishes the pruned snapshot.
func (t *Table) removeLocked(id, pattern string) bool {
	pats, ok := t.byID[id]
	if !ok {
		return false
	}
	if _, ok := pats[pattern]; !ok {
		return false
	}
	delete(pats, pattern)
	if len(pats) == 0 {
		delete(t.byID, id)
		if idx, ok := t.index[id]; ok {
			delete(t.index, id)
			t.free = append(t.free, idx)
		}
	}
	t.publishLocked(removePath(t.snap.Load().root, pattern, id))
	return true
}

// splitPattern returns a pattern's segments, less a terminal **, and whether
// it had one.
func splitPattern(pattern string) (segs []string, terminalAny bool) {
	segs = Split(pattern)
	if segs[len(segs)-1] == WildcardAny {
		return segs[:len(segs)-1], true
	}
	return segs, false
}

// insertPath returns a new root with the entry registered under pattern,
// sharing every node off the mutated path with the previous generation.
func insertPath(root *trieNode, pattern string, e entry) *trieNode {
	segs, terminalAny := splitPattern(pattern)
	return insertAt(root, segs, terminalAny, e)
}

// insertAt returns a copy of n (nil: a new node) with e registered at segs.
func insertAt(n *trieNode, segs []string, terminalAny bool, e entry) *trieNode {
	var c trieNode
	if n != nil {
		c = *n
	}
	switch {
	case len(segs) > 0:
		c.setChild(segs[0], insertAt(c.child(segs[0]), segs[1:], terminalAny, e))
	case terminalAny:
		c.anyIDs = withEntry(c.anyIDs, e)
	default:
		c.ids = withEntry(c.ids, e)
	}
	return &c
}

// withEntry returns a fresh slice with e appended, or substituted for an
// existing registration of the same id (attachment refresh). The old slice
// is never written: concurrent matchers may still be iterating it.
func withEntry(old []entry, e entry) []entry {
	out := make([]entry, len(old), len(old)+1)
	copy(out, old)
	for i := range out {
		if out[i].id == e.id {
			out[i] = e
			return out
		}
	}
	return append(out, e)
}

// removePath returns a new root without (id, pattern), pruning nodes the
// removal empties. Untouched subtrees are shared with the old generation.
func removePath(root *trieNode, pattern, id string) *trieNode {
	segs, terminalAny := splitPattern(pattern)
	if n := removeAt(root, segs, terminalAny, id); n != nil {
		return n
	}
	return &trieNode{}
}

// removeAt returns a copy of n without id's entry at segs: nil when that
// leaves the copy empty, n itself when there is no such path.
func removeAt(n *trieNode, segs []string, terminalAny bool, id string) *trieNode {
	c := *n
	switch {
	case len(segs) > 0:
		child := c.child(segs[0])
		if child == nil {
			return n // bookkeeping said it exists; nothing to prune
		}
		c.setChild(segs[0], removeAt(child, segs[1:], terminalAny, id))
	case terminalAny:
		c.anyIDs = without(c.anyIDs, id)
	default:
		c.ids = without(c.ids, id)
	}
	if c.empty() {
		return nil
	}
	return &c
}

// without returns a fresh slice with the id's entry removed (or the original
// slice unchanged when absent).
func without(old []entry, id string) []entry {
	for i := range old {
		if old[i].id == id {
			out := make([]entry, 0, len(old)-1)
			out = append(out, old[:i]...)
			return append(out, old[i+1:]...)
		}
	}
	return old
}

// Scratch is the reusable dedup state for MatchEachUnique: an epoch-stamped
// array indexed by the table's dense subscriber indexes, so de-duplicating a
// visit costs one array load instead of a string comparison sweep. The zero
// value is ready. A Scratch must not be used concurrently, but may be reused
// across calls and across tables (it grows to the widest generation seen).
type Scratch struct {
	seen []uint32
	seq  uint32
}

// MatchEachUnique invokes visit exactly once per matching subscriber with
// the attachment supplied at registration (nil for Subscribe). It takes no
// locks and allocates nothing once the scratch has grown to the table's
// subscriber high-water mark.
func (t *Table) MatchEachUnique(topic string, sc *Scratch, visit func(id string, val any)) {
	s := t.snap.Load()
	if int(s.width) > len(sc.seen) {
		sc.seen = make([]uint32, s.width+s.width/2+8)
	}
	sc.seq++
	if sc.seq == 0 { // epoch wrap: stale stamps could alias, reset
		clear(sc.seen)
		sc.seq = 1
	}
	matchUniqueTrie(s.root, topic, 0, sc, visit)
}

func (sc *Scratch) visitNew(es []entry, visit func(id string, val any)) {
	for i := range es {
		e := &es[i]
		if sc.seen[e.idx] == sc.seq {
			continue
		}
		sc.seen[e.idx] = sc.seq
		visit(e.id, e.val)
	}
}

func matchUniqueTrie(node *trieNode, topic string, start int, sc *Scratch, visit func(id string, val any)) {
	// A terminal ** at this node matches the (non-empty) remaining suffix —
	// and also an exact end: "a/**" matches "a/b" and "a/b/c" but not "a".
	if start > len(topic) {
		sc.visitNew(node.ids, visit)
		return
	}
	sc.visitNew(node.anyIDs, visit)
	if node.kids == nil && node.star == nil {
		return
	}
	seg, next := nextSegment(topic, start)
	if node.kids != nil {
		if child := node.kids.get(seg, hashSegment(seg)); child != nil {
			matchUniqueTrie(child, topic, next, sc, visit)
		}
	}
	if node.star != nil {
		matchUniqueTrie(node.star, topic, next, sc, visit)
	}
}

// Patterns returns the sorted patterns registered by a subscriber.
func (t *Table) Patterns(id string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	pats := t.byID[id]
	if len(pats) == 0 {
		return nil
	}
	out := make([]string, 0, len(pats))
	for p := range pats {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
