// Package dedup implements the per-broker duplicate-suppression cache the
// paper mandates: "Every broker keeps track of the last 1000 (this number can
// be configured through the broker configuration file) broker discovery
// requests so that additional CPU/network cycles are not expended on
// previously processed requests."
//
// The cache is a fixed-capacity FIFO set: insertion order decides eviction
// (the *last N seen*, exactly as specified), lookups are O(1), and the whole
// structure is safe for concurrent use by the broker's transport goroutines.
//
// Large caches (the broker's event-flood window) are split into shards
// indexed by a keyed hash of the whole ID (hash/maphash, seeded per cache),
// so concurrent ingress goroutines stop serialising on a single mutex. IDs
// that share most of their bytes — a sequence number in the leading bytes —
// still spread, so each shard holds a fair 1/N slice of the stream and the
// aggregate keeps the paper's last-N window semantics per shard; small
// caches stay single-sharded and exactly FIFO.
package dedup

import (
	"hash/maphash"
	"sync"

	"narada/internal/uuid"
)

// DefaultCapacity mirrors the paper's default of 1000 remembered requests.
const DefaultCapacity = 1000

const (
	// numShards is the shard count for large caches; a power of two so the
	// shard index is a mask of the ID's hash.
	numShards = 16
	// shardedMinCapacity is the capacity at which sharding kicks in. Below
	// it the per-shard windows would be too small to approximate the global
	// FIFO, and contention on a small cache is rarely the bottleneck.
	shardedMinCapacity = 2048
)

// shard is one independently locked FIFO window.
type shard struct {
	mu    sync.Mutex
	cap   int
	set   map[uuid.UUID]struct{}
	order []uuid.UUID // ring buffer of insertion order
	head  int         // next slot to overwrite once full
	full  bool
	hits  uint64
	adds  uint64
}

// Cache remembers the most recent Capacity UUIDs it has seen.
type Cache struct {
	cap    int
	seed   maphash.Seed
	shards []shard // length 1 or numShards
}

// New returns a Cache remembering the last capacity UUIDs.
// capacity <= 0 falls back to DefaultCapacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1
	if capacity >= shardedMinCapacity {
		n = numShards
	}
	per := (capacity + n - 1) / n
	c := &Cache{cap: per * n, seed: maphash.MakeSeed(), shards: make([]shard, n)}
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = per
		s.set = make(map[uuid.UUID]struct{}, per)
		s.order = make([]uuid.UUID, per)
	}
	return c
}

func (c *Cache) shardFor(id uuid.UUID) *shard { return &c.shards[c.shardIndex(id)] }

// shardIndex is the shard that remembers id.
func (c *Cache) shardIndex(id uuid.UUID) int {
	if len(c.shards) == 1 {
		return 0
	}
	return int(maphash.Bytes(c.seed, id[:]) & uint64(len(c.shards)-1))
}

// Seen records id and reports whether it had already been seen (and is still
// within the last-capacity window). A true return means "duplicate: skip it".
func (c *Cache) Seen(id uuid.UUID) bool {
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.set[id]; dup {
		s.hits++
		return true
	}
	if s.full {
		delete(s.set, s.order[s.head])
	}
	s.order[s.head] = id
	s.set[id] = struct{}{}
	s.head++
	if s.head == s.cap {
		s.head = 0
		s.full = true
	}
	s.adds++
	return false
}

// Contains reports whether id is currently remembered, without recording it.
func (c *Cache) Contains(id uuid.UUID) bool {
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.set[id]
	return ok
}

// Len returns the number of UUIDs currently remembered.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.set)
		s.mu.Unlock()
	}
	return n
}

// Capacity returns the configured window size (rounded up to a multiple of
// the shard count for large caches).
func (c *Cache) Capacity() int { return c.cap }

// Stats returns the number of duplicate hits and total distinct insertions,
// used by the broker's usage metrics. All shard locks are held together (in
// shard order, the same order Reset uses) while the counters are read, so
// the totals are a consistent point-in-time snapshot: a concurrent Reset or
// burst of Seen calls can never produce torn sums that mix pre- and
// post-update shard values.
func (c *Cache) Stats() (hits, adds uint64) {
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	for i := range c.shards {
		hits += c.shards[i].hits
		adds += c.shards[i].adds
	}
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
	return hits, adds
}

// Reset forgets everything, including the UUIDs lingering in the order ring's
// backing array, so a reset cache holds no references to old identifiers.
// Like Stats it holds every shard lock at once, so a concurrent Stats sees
// either the whole pre-reset state or all zeros, never a partial wipe.
func (c *Cache) Reset() {
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.set = make(map[uuid.UUID]struct{}, s.cap)
		clear(s.order)
		s.head = 0
		s.full = false
		s.hits = 0
		s.adds = 0
	}
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
}
