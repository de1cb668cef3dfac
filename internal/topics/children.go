package topics

import (
	"hash/maphash"
	"math/bits"
)

// A trie node's exact-segment children live in a persistent hash-array-mapped
// trie (HAMT): each level holds a 32-bit bitmap and a compact slice of the
// occupied slots, indexed by five bits of the segment's hash. A write copies
// only the O(log₃₂ n) small levels on the key's path and shares every other
// level with the previous snapshot, so a node with n children costs O(log n)
// per subscribe instead of a copy of all n. Levels are immutable once
// published, like the trie nodes that own them.
//
// The structure is canonical: a nested level always holds at least two keys
// (a removal that leaves one leaf alone pulls it up into the parent's slot),
// and a node with no children holds a nil level.

// levelBits is the hash bits each level consumes; 1<<levelBits slots per level.
const levelBits = 5

// maxShift is the deepest shift at which a level is indexed by hash bits.
// Keys whose 64-bit hashes are equal meet below it, in a collision level:
// bitmap 0, slots searched linearly by key.
const maxShift = 64 - 64%levelBits

// segmentSeed keys the segment hash; it lives for the process, so every
// snapshot of every table hashes a segment the same way.
var segmentSeed = maphash.MakeSeed()

func hashSegment(seg string) uint64 { return maphash.String(segmentSeed, seg) }

// level is one 32-way level of a children HAMT.
type level struct {
	bitmap uint32 // bit i set: slots holds the entry for hash chunk i
	slots  []slot // occupied slots in bit order
}

// slot is a leaf (key, hash, node) or a nested level (sub).
type slot struct {
	key  string
	hash uint64
	node *trieNode
	sub  *level
}

// chunk returns the level's slot bit for hash h at shift.
func chunk(h uint64, shift uint) uint32 { return 1 << ((h >> shift) & (1<<levelBits - 1)) }

// get returns the child bound to key (whose hash is h), or nil.
func (l *level) get(key string, h uint64) *trieNode {
	for shift := uint(0); l != nil; shift += levelBits {
		if shift > maxShift {
			for i := range l.slots {
				if l.slots[i].key == key {
					return l.slots[i].node
				}
			}
			return nil
		}
		bit := chunk(h, shift)
		if l.bitmap&bit == 0 {
			return nil
		}
		s := &l.slots[bits.OnesCount32(l.bitmap&(bit-1))]
		if s.sub == nil {
			if s.hash == h && s.key == key {
				return s.node
			}
			return nil
		}
		l = s.sub
	}
	return nil
}

// put returns a level equal to l with key bound to node (a nil l is empty).
// l and every level under it are left untouched.
func (l *level) put(key string, h uint64, node *trieNode, shift uint) *level {
	leaf := slot{key: key, hash: h, node: node}
	if shift > maxShift {
		if l != nil {
			for i := range l.slots {
				if l.slots[i].key == key {
					return l.with(i, leaf)
				}
			}
			return &level{slots: append(l.slots[:len(l.slots):len(l.slots)], leaf)}
		}
		return &level{slots: []slot{leaf}}
	}
	bit := chunk(h, shift)
	if l == nil {
		return &level{bitmap: bit, slots: []slot{leaf}}
	}
	i := bits.OnesCount32(l.bitmap & (bit - 1))
	if l.bitmap&bit == 0 {
		slots := make([]slot, len(l.slots)+1)
		copy(slots, l.slots[:i])
		slots[i] = leaf
		copy(slots[i+1:], l.slots[i:])
		return &level{bitmap: l.bitmap | bit, slots: slots}
	}
	s := l.slots[i]
	switch {
	case s.sub != nil:
		return l.with(i, slot{sub: s.sub.put(key, h, node, shift+levelBits)})
	case s.key == key:
		return l.with(i, leaf)
	default: // two keys share this chunk: both move one level down
		sub := (*level)(nil).put(s.key, s.hash, s.node, shift+levelBits)
		return l.with(i, slot{sub: sub.put(key, h, node, shift+levelBits)})
	}
}

// del returns a level equal to l without key: l itself when key is absent,
// nil when key was the last entry.
func (l *level) del(key string, h uint64, shift uint) *level {
	if l == nil {
		return nil
	}
	if shift > maxShift {
		for i := range l.slots {
			if l.slots[i].key == key {
				return l.without(i, 0)
			}
		}
		return l
	}
	bit := chunk(h, shift)
	if l.bitmap&bit == 0 {
		return l
	}
	i := bits.OnesCount32(l.bitmap & (bit - 1))
	s := l.slots[i]
	if s.sub == nil {
		if s.key != key {
			return l
		}
		return l.without(i, bit)
	}
	sub := s.sub.del(key, h, shift+levelBits)
	switch {
	case sub == s.sub:
		return l
	case sub == nil:
		return l.without(i, bit)
	case len(sub.slots) == 1 && sub.slots[0].sub == nil:
		return l.with(i, sub.slots[0]) // a lone leaf moves up
	default:
		return l.with(i, slot{sub: sub})
	}
}

// with returns a copy of l whose slot i is s.
func (l *level) with(i int, s slot) *level {
	slots := make([]slot, len(l.slots))
	copy(slots, l.slots)
	slots[i] = s
	return &level{bitmap: l.bitmap, slots: slots}
}

// without returns a copy of l without slot i and its bit (nil when it was the
// only slot).
func (l *level) without(i int, bit uint32) *level {
	if len(l.slots) == 1 {
		return nil
	}
	slots := make([]slot, 0, len(l.slots)-1)
	slots = append(slots, l.slots[:i]...)
	return &level{bitmap: l.bitmap &^ bit, slots: append(slots, l.slots[i+1:]...)}
}
