package dedup

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"narada/internal/uuid"
)

func TestSeenFirstTimeFalse(t *testing.T) {
	c := New(10)
	id := uuid.New()
	if c.Seen(id) {
		t.Fatal("first Seen returned true")
	}
	if !c.Seen(id) {
		t.Fatal("second Seen returned false")
	}
}

func TestDefaultCapacity(t *testing.T) {
	if New(0).Capacity() != DefaultCapacity {
		t.Fatalf("capacity = %d, want %d", New(0).Capacity(), DefaultCapacity)
	}
	if New(-5).Capacity() != DefaultCapacity {
		t.Fatal("negative capacity not defaulted")
	}
}

func TestEvictionKeepsLastN(t *testing.T) {
	const capacity = 100
	c := New(capacity)
	ids := make([]uuid.UUID, 250)
	for i := range ids {
		ids[i] = uuid.New()
		c.Seen(ids[i])
	}
	// The last `capacity` ids must still be remembered…
	for _, id := range ids[len(ids)-capacity:] {
		if !c.Contains(id) {
			t.Fatalf("recently seen id evicted early")
		}
	}
	// …and everything older must be gone.
	for _, id := range ids[:len(ids)-capacity] {
		if c.Contains(id) {
			t.Fatalf("stale id survived eviction")
		}
	}
	if c.Len() != capacity {
		t.Fatalf("Len = %d, want %d", c.Len(), capacity)
	}
}

func TestDuplicateDoesNotEvict(t *testing.T) {
	c := New(3)
	a, b, d := uuid.New(), uuid.New(), uuid.New()
	c.Seen(a)
	c.Seen(b)
	c.Seen(d)
	// Re-seeing existing ids must not push anything out.
	for i := 0; i < 10; i++ {
		c.Seen(a)
		c.Seen(b)
	}
	if !c.Contains(d) {
		t.Fatal("duplicate insertions evicted a live entry")
	}
}

func TestStats(t *testing.T) {
	c := New(4)
	id := uuid.New()
	c.Seen(id)
	c.Seen(id)
	c.Seen(uuid.New())
	hits, adds := c.Stats()
	if hits != 1 || adds != 2 {
		t.Fatalf("Stats = (%d, %d), want (1, 2)", hits, adds)
	}
}

func TestReset(t *testing.T) {
	c := New(4)
	id := uuid.New()
	c.Seen(id)
	c.Reset()
	if c.Contains(id) || c.Len() != 0 {
		t.Fatal("Reset did not clear the cache")
	}
	hits, adds := c.Stats()
	if hits != 0 || adds != 0 {
		t.Fatal("Reset did not clear stats")
	}
}

func TestLenNeverExceedsCapacity(t *testing.T) {
	f := func(seed [8][16]byte, capacity uint8) bool {
		capN := int(capacity%16) + 1
		c := New(capN)
		for _, b := range seed {
			c.Seen(uuid.UUID(b))
		}
		return c.Len() <= capN
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(64)
	var wg sync.WaitGroup
	shared := uuid.New()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Seen(uuid.New())
				c.Seen(shared)
				c.Contains(shared)
			}
		}()
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("Len = %d exceeds capacity after concurrent use", c.Len())
	}
}

func TestExactlyOneFirstSeenUnderConcurrency(t *testing.T) {
	// The broker relies on Seen returning false exactly once per UUID so a
	// request is processed exactly once no matter how many links deliver it.
	c := New(1024)
	id := uuid.New()
	const goroutines = 16
	results := make(chan bool, goroutines)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			results <- c.Seen(id)
		}()
	}
	start.Done()
	wg.Wait()
	close(results)
	fresh := 0
	for dup := range results {
		if !dup {
			fresh++
		}
	}
	if fresh != 1 {
		t.Fatalf("%d goroutines saw the id as fresh, want exactly 1", fresh)
	}
}

// BenchmarkSeen feeds fresh IDs to a full window, so every call inserts one
// ID and evicts another: the single-shard request cache the paper specifies
// and the broker's sharded 4000-ID event window.
func BenchmarkSeen(b *testing.B) {
	for _, capacity := range []int{DefaultCapacity, 4 * DefaultCapacity} {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			c := New(capacity)
			id := uuid.New()
			seq := uint64(0)
			for ; seq < uint64(c.Capacity()); seq++ {
				binary.BigEndian.PutUint64(id[8:], seq)
				c.Seen(id)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.BigEndian.PutUint64(id[8:], seq)
				seq++
				if c.Seen(id) {
					b.Fatal("a fresh id was reported seen")
				}
			}
		})
	}
}

// shardedIDs generates ids for c that cycle its shards round-robin, so a
// sharded cache behaves exactly like a global FIFO and eviction is
// deterministic.
func shardedIDs(c *Cache, n int) []uuid.UUID {
	ids := make([]uuid.UUID, n)
	var cand uuid.UUID
	cand[15] = 0xA5 // avoid the zero UUID
	seq := uint64(0)
	for i := range ids {
		for {
			binary.BigEndian.PutUint64(cand[:], seq)
			seq++
			if c.shardIndex(cand) == i%len(c.shards) {
				break
			}
		}
		ids[i] = cand
	}
	return ids
}

// TestSequentialIDsSpreadOverShards: IDs that differ only in a big-endian
// sequence number in their leading bytes share their first byte, and must
// still reach every shard, none with more than twice its fair share.
func TestSequentialIDsSpreadOverShards(t *testing.T) {
	const n = 16_000
	c := New(4 * DefaultCapacity)
	var per [numShards]int
	var id uuid.UUID
	id[15] = 0xA5
	for seq := uint64(0); seq < n; seq++ {
		binary.BigEndian.PutUint64(id[:], seq)
		per[c.shardIndex(id)]++
	}
	for i, got := range per {
		if got == 0 || got > 2*n/numShards {
			t.Fatalf("shard %d holds %d of %d ids (fair share %d): %v", i, got, n, n/numShards, per)
		}
	}
}

func TestShardedEvictionKeepsLastN(t *testing.T) {
	const capacity = 4096
	c := New(capacity)
	if len(c.shards) != numShards {
		t.Fatalf("expected %d shards for capacity %d, got %d", numShards, capacity, len(c.shards))
	}
	if c.Capacity() != capacity {
		t.Fatalf("Capacity = %d, want %d", c.Capacity(), capacity)
	}
	ids := shardedIDs(c, 2*capacity)
	for _, id := range ids {
		c.Seen(id)
	}
	for _, id := range ids[len(ids)-capacity:] {
		if !c.Contains(id) {
			t.Fatal("recently seen id evicted early")
		}
	}
	for _, id := range ids[:len(ids)-capacity] {
		if c.Contains(id) {
			t.Fatal("stale id survived eviction")
		}
	}
	if c.Len() != capacity {
		t.Fatalf("Len = %d, want %d", c.Len(), capacity)
	}
}

func TestShardedLenNeverExceedsCapacity(t *testing.T) {
	c := New(shardedMinCapacity)
	for i := 0; i < 4*shardedMinCapacity; i++ {
		c.Seen(uuid.New())
	}
	if c.Len() > c.Capacity() {
		t.Fatalf("Len = %d exceeds capacity %d", c.Len(), c.Capacity())
	}
}

func TestSmallCapacityStaysSingleShard(t *testing.T) {
	if c := New(DefaultCapacity); len(c.shards) != 1 {
		t.Fatalf("capacity %d should use one shard, got %d", DefaultCapacity, len(c.shards))
	}
}

func TestResetClearsOrderRing(t *testing.T) {
	c := New(8)
	for i := 0; i < 8; i++ {
		c.Seen(uuid.New())
	}
	c.Reset()
	var zero uuid.UUID
	for i := range c.shards {
		for _, id := range c.shards[i].order {
			if id != zero {
				t.Fatal("Reset left a stale UUID in the order ring")
			}
		}
	}
}

func BenchmarkSeenParallel(b *testing.B) {
	c := New(4096)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		ids := make([]uuid.UUID, 1024)
		for i := range ids {
			ids[i] = uuid.New()
		}
		i := 0
		for pb.Next() {
			c.Seen(ids[i%len(ids)])
			i++
		}
	})
}

// TestStatsConsistentSnapshotRace checks the consistency contract of Stats
// under concurrent writers: every writer performs add/hit pairs (Seen on a
// fresh id, then Seen on the same id again), so at any consistent snapshot
// adds-hits is bounded by the number of writers mid-pair — at most one
// unmatched add per writer. A torn sum over the shards could count one
// writer's in-flight pair on several shards and break the bound. Run with
// -race; a concurrent Reset phase additionally exercises the all-shard
// locking against partial wipes.
func TestStatsConsistentSnapshotRace(t *testing.T) {
	const writers = 8
	c := New(4 * shardedMinCapacity) // sharded: 16 independently locked shards
	if len(c.shards) != numShards {
		t.Fatalf("test needs a sharded cache, got %d shards", len(c.shards))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ops [writers]uint64
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := uuid.New()
				c.Seen(id) // add
				c.Seen(id) // hit (same shard, immediately after)
				ops[g] += 2
			}
		}(g)
	}

	for i := 0; i < 2000; i++ {
		hits, adds := c.Stats()
		if hits > adds {
			t.Errorf("snapshot %d: hits %d > adds %d", i, hits, adds)
			break
		}
		if adds-hits > writers {
			t.Errorf("snapshot %d: torn totals, adds-hits = %d exceeds %d in-flight writers",
				i, adds-hits, writers)
			break
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: every Seen call was counted exactly once, as an add or a hit.
	total := uint64(0)
	for _, n := range ops {
		total += n
	}
	hits, adds := c.Stats()
	if hits+adds != total {
		t.Errorf("final totals: hits %d + adds %d = %d, want %d Seen calls",
			hits, adds, hits+adds, total)
	}

	// Stats racing Reset must see all-or-nothing, never hits > adds from a
	// half-wiped cache.
	stop = make(chan struct{})
	var wg2 sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := uuid.New()
				c.Seen(id)
				c.Seen(id)
			}
		}()
	}
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		for i := 0; i < 200; i++ {
			c.Reset()
		}
	}()
	for i := 0; i < 2000; i++ {
		if hits, adds := c.Stats(); hits > adds {
			t.Errorf("snapshot during Reset: hits %d > adds %d", hits, adds)
			break
		}
	}
	close(stop)
	wg2.Wait()
}
