package topics

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// checkLevel asserts the children HAMT's invariants under l and returns the
// number of keys it holds: one slot per bitmap bit, each leaf in the slot its
// hash selects, and every nested level holding at least two keys (a lone leaf
// is pulled up on removal, so the shape after any history is the shape a
// fresh build gives).
func checkLevel(t *testing.T, l *level, shift uint) int {
	t.Helper()
	if l == nil {
		return 0
	}
	if shift > maxShift {
		if l.bitmap != 0 || len(l.slots) < 2 {
			t.Fatalf("collision level: bitmap %#x, %d slots", l.bitmap, len(l.slots))
		}
		return len(l.slots)
	}
	if n := bits.OnesCount32(l.bitmap); n != len(l.slots) || n == 0 {
		t.Fatalf("level at shift %d: bitmap %#x has %d bits, %d slots", shift, l.bitmap, n, len(l.slots))
	}
	keys := 0
	for i, s := range l.slots {
		bit := l.bitmap
		for j := 0; j < i; j++ {
			bit &= bit - 1
		}
		bit &= -bit // the slot's own bit
		if s.sub == nil {
			if chunk(s.hash, shift) != bit {
				t.Fatalf("leaf %q at shift %d sits in slot %#x, hash selects %#x", s.key, shift, bit, chunk(s.hash, shift))
			}
			keys++
			continue
		}
		n := checkLevel(t, s.sub, shift+levelBits)
		if n < 2 {
			t.Fatalf("nested level at shift %d holds %d key(s)", shift+levelBits, n)
		}
		keys += n
	}
	return keys
}

// TestLevelCollisions drives the children HAMT with chosen hashes: keys that
// share their first chunks nest, keys with equal 64-bit hashes meet in a
// collision level, and removals collapse both back to the one-level shape.
func TestLevelCollisions(t *testing.T) {
	nodes := map[string]*trieNode{}
	type key struct {
		name string
		hash uint64
	}
	keys := []key{
		{"a", 0x1},
		{"b", 0x1},           // full collision with a
		{"c", 0x1},           // and with both
		{"d", 0x1 | 0x3<<55}, // shares 11 chunks with a, b, c
		{"e", 0x2},           // its own slot at the top
		{"f", 0x1 | 0x1<<5},  // parts from a at the second chunk
	}
	var l *level
	for _, k := range keys {
		nodes[k.name] = &trieNode{}
		l = l.put(k.name, k.hash, nodes[k.name], 0)
		if n := checkLevel(t, l, 0); n != len(nodes) {
			t.Fatalf("after put %q: %d keys, want %d", k.name, n, len(nodes))
		}
	}
	for _, k := range keys {
		if got := l.get(k.name, k.hash); got != nodes[k.name] {
			t.Fatalf("get %q = %p, want %p", k.name, got, nodes[k.name])
		}
	}
	if got := l.get("z", 0x1); got != nil {
		t.Fatalf("get of an absent key in the collision level = %p", got)
	}
	if l.del("z", 0x1, 0) != l || l.del("z", 0x5, 0) != l {
		t.Fatal("removing an absent key copied the level")
	}
	// Rebind one key: the old level keeps its binding.
	repl := &trieNode{}
	l2 := l.put("b", 0x1, repl, 0)
	if l.get("b", 0x1) != nodes["b"] || l2.get("b", 0x1) != repl {
		t.Fatal("put over an existing key changed the old level")
	}
	for i, k := range keys {
		l = l.del(k.name, k.hash, 0)
		left := len(keys) - i - 1
		if n := checkLevel(t, l, 0); n != left {
			t.Fatalf("after del %q: %d keys, want %d", k.name, n, left)
		}
		if l.get(k.name, k.hash) != nil {
			t.Fatalf("del %q left it reachable", k.name)
		}
		for _, rest := range keys[i+1:] {
			if l.get(rest.name, rest.hash) != nodes[rest.name] {
				t.Fatalf("del %q lost %q", k.name, rest.name)
			}
		}
		if left == 1 && (len(l.slots) != 1 || l.slots[0].sub != nil) {
			t.Fatalf("one key left, but the top level is %+v", l.slots)
		}
	}
	if l != nil {
		t.Fatalf("empty level = %+v, want nil", l)
	}
}

// matchSnapshot is Table.Match on one loaded generation.
func matchSnapshot(s *snapshot, topic string) []string {
	var ids []string
	sc := Scratch{seen: make([]uint32, s.width), seq: 1}
	matchUniqueTrie(s.root, topic, 0, &sc, func(id string, _ any) { ids = append(ids, id) })
	sort.Strings(ids)
	return ids
}

// TestTableWideFanoutRandom puts thousands of siblings under one node, the
// shape the children HAMT is for: seeded random subscribes and unsubscribes
// of 5 000 distinct segments under an exact node ("w/<seg>") and under a *
// node ("*/<seg>"), with every answer checked against lockedTable after every
// step. Levels split as a node grows and collapse as it drains; a snapshot
// loaded before a batch of writes keeps its answers, and a node whose
// children all go holds no level.
func TestTableWideFanoutRandom(t *testing.T) {
	const segments = 5000
	rng := rand.New(rand.NewSource(1))
	segs := make([]string, segments)
	for i := range segs {
		segs[i] = fmt.Sprintf("s%d", rng.Int63())
	}
	ids := []string{"x", "y", "z"}
	parents := []string{"w/", "*/"}

	cow := NewTable()
	// Every pattern here is <parent>/<seg> with a concrete seg, so a topic
	// ending in seg can only match patterns ending in seg: one lockedTable
	// per segment is the whole reference for that topic, and stays small.
	ref := make(map[string]*lockedTable, segments)
	for _, seg := range segs {
		ref[seg] = newLockedTable()
	}
	// The parents themselves are registered, so their nodes outlive their
	// children and the drained shape can be inspected.
	for _, p := range []string{"w", "*"} {
		if err := cow.Subscribe("parent", p); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step int, seg string) {
		t.Helper()
		for _, topic := range []string{"w/" + seg, "v/" + seg} {
			want := ref[seg].match(topic)
			sort.Strings(want)
			if got := cow.Match(topic); !equalStrings(got, want) {
				t.Fatalf("step %d: Match(%q) = %v, locked reference = %v", step, topic, got, want)
			}
		}
	}
	op := func(step int, subscribe bool, id, parent, seg string) {
		t.Helper()
		pattern := parent + seg
		if subscribe {
			if err := cow.Subscribe(id, pattern); err != nil {
				t.Fatal(err)
			}
			_ = ref[seg].Subscribe(id, pattern)
		} else if got, want := cow.Unsubscribe(id, pattern), ref[seg].Unsubscribe(id, pattern); got != want {
			t.Fatalf("step %d: Unsubscribe(%s, %q) = %v, locked reference = %v", step, id, pattern, got, want)
		}
		check(step, seg)
		check(step, segs[rng.Intn(segments)])
	}
	wide := func() (exact, star *trieNode) {
		root := cow.snap.Load().root
		return root.child("w"), root.star
	}
	checkShape := func(want int) {
		t.Helper()
		exact, star := wide()
		if n := checkLevel(t, exact.kids, 0) + checkLevel(t, star.kids, 0); n != want {
			t.Fatalf("%d children under w and *, want %d", n, want)
		}
	}

	// Grow: every segment under both parents, in random order.
	step := 0
	for _, i := range rng.Perm(2 * segments) {
		op(step, true, ids[rng.Intn(len(ids))], parents[i%2], segs[i/2])
		step++
	}
	checkShape(2 * segments)

	// Churn while an old generation is held.
	old := cow.snap.Load()
	before := make(map[string][]string, 2*segments)
	for _, seg := range segs {
		for _, topic := range []string{"w/" + seg, "v/" + seg} {
			before[topic] = matchSnapshot(old, topic)
		}
	}
	for n := 0; n < 4*segments; n++ {
		op(step, rng.Intn(2) == 0, ids[rng.Intn(len(ids))], parents[rng.Intn(2)], segs[rng.Intn(segments)])
		step++
	}
	for topic, want := range before {
		if got := matchSnapshot(old, topic); !equalStrings(got, want) {
			t.Fatalf("old snapshot: Match(%q) = %v after the churn, %v before", topic, got, want)
		}
	}
	live := 0
	for _, seg := range segs {
		pats := map[string]bool{}
		for _, ps := range ref[seg].subs {
			for p := range ps {
				pats[p] = true
			}
		}
		live += len(pats)
	}
	checkShape(live)

	// Drain: every registration goes, in random order.
	for _, i := range rng.Perm(2 * segments) {
		for _, id := range ids {
			op(step, false, id, parents[i%2], segs[i/2])
			step++
		}
	}
	exact, star := wide()
	if exact == nil || star == nil || exact.kids != nil || star.kids != nil {
		t.Fatalf("drained parents: w=%+v *=%+v, want both present with no children level", exact, star)
	}
	cow.UnsubscribeAll("parent")
	if root := cow.snap.Load().root; !root.empty() {
		t.Fatalf("empty table's root = %+v", root)
	}
}
