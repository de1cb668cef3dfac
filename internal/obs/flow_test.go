package obs

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func snapshotByTopic(t *FlowTable) map[string]FlowSnapshot {
	out := make(map[string]FlowSnapshot)
	for _, s := range t.Snapshot() {
		out[s.Topic] = s
	}
	return out
}

func TestFlowTableNilSafe(t *testing.T) {
	var ft *FlowTable
	if h := ft.Published("a", 10); h != (FlowHandle{}) {
		t.Fatal("nil table returned a handle")
	}
	if s := ft.Snapshot(); s != nil {
		t.Fatalf("nil table snapshot = %v", s)
	}
	var h FlowHandle
	h.Delivered(5)          // must not panic
	h.Dropped(DropConnDown) // must not panic
}

func TestFlowTableAccounting(t *testing.T) {
	ft := NewFlowTable(8)
	for i := 0; i < 5; i++ {
		e := ft.Published("sensors/temp", 100)
		e.Delivered(100)
	}
	e := ft.Published("sensors/humidity", 40)
	e.Dropped(DropQueueFull)
	e.Dropped(DropConnDown)
	e.Dropped(DropConnDown)

	snaps := ft.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("snapshot has %d rows, want 2: %+v", len(snaps), snaps)
	}
	// Sorted by published count descending.
	if snaps[0].Topic != "sensors/temp" || snaps[1].Topic != "sensors/humidity" {
		t.Fatalf("order = %s, %s", snaps[0].Topic, snaps[1].Topic)
	}
	temp := snaps[0]
	if temp.PubMsgs != 5 || temp.PubBytes != 500 || temp.DelMsgs != 5 || temp.DelBytes != 500 {
		t.Fatalf("temp accounting: %+v", temp)
	}
	hum := snaps[1]
	if hum.PubMsgs != 1 || hum.DropQueue != 1 || hum.DropConn != 2 || hum.DropMsgs != 3 {
		t.Fatalf("humidity accounting: %+v", hum)
	}
	if temp.ErrBound != 0 || hum.ErrBound != 0 {
		t.Fatal("entries inserted below capacity carry an error bound")
	}
}

// TestFlowTableEvictionInheritsErrBound walks the space-saving replacement:
// at capacity, a new topic evicts the current minimum, inherits its count as
// the starting point and error bound, and the evicted topic's delivered and
// dropped tallies fold into <other> so node totals stay exact.
func TestFlowTableEvictionInheritsErrBound(t *testing.T) {
	ft := NewFlowTable(2)
	for i := 0; i < 7; i++ {
		ft.Published("heavy", 10)
	}
	small := ft.Published("small", 10)
	ft.Published("small", 10)
	ft.Published("small", 10) // small: count 3
	small.Delivered(10)
	small.Dropped(DropQueueFull)

	// Table full; a third topic must replace the minimum (small, count 3).
	ft.Published("newcomer", 10)

	byTopic := snapshotByTopic(ft)
	if _, ok := byTopic["small"]; ok {
		t.Fatalf("minimum entry survived eviction: %+v", byTopic)
	}
	nc, ok := byTopic["newcomer"]
	if !ok {
		t.Fatalf("newcomer not tracked: %+v", byTopic)
	}
	// Space-saving: count = evicted minimum + 1, errBound = evicted minimum.
	if nc.PubMsgs != 4 || nc.ErrBound != 3 {
		t.Fatalf("newcomer count=%d errBound=%d, want 4/3", nc.PubMsgs, nc.ErrBound)
	}
	other, ok := byTopic[FlowOther]
	if !ok {
		t.Fatalf("no <other> fold after eviction: %+v", byTopic)
	}
	if other.DelMsgs != 1 || other.DropQueue != 1 {
		t.Fatalf("<other> fold = %+v, want the evicted topic's 1 delivered / 1 dropped", other)
	}

	// The evicted topic's handle stays safe: frames in flight may still hold
	// it, and its updates fold into <other> (TestFlowTableEvictedHandleFoldsIntoOther).
	small.Delivered(10)
	small.Dropped(DropConnDown)
}

// TestFlowTableHeavyHitterGuarantee exercises the top-k claim: a topic with
// true frequency above N/K is present in the sketch no matter how much
// one-shot churn competes for slots, and its count error respects errBound.
func TestFlowTableHeavyHitterGuarantee(t *testing.T) {
	const k = 8
	ft := NewFlowTable(k)
	const heavyTrue = 600
	total := 0
	for i := 0; i < heavyTrue; i++ {
		ft.Published("heavy", 1)
		total++
		// Interleave churn: 900 distinct one-shot topics across the run.
		if i%2 == 0 {
			ft.Published(fmt.Sprintf("churn/%d", i), 1)
			total++
		}
		if i%3 == 0 {
			ft.Published(fmt.Sprintf("churn2/%d", i), 1)
			total++
		}
	}
	if heavyTrue <= total/k {
		t.Fatalf("test invariant broken: heavy %d below N/K = %d", heavyTrue, total/k)
	}
	h, ok := snapshotByTopic(ft)["heavy"]
	if !ok {
		t.Fatalf("heavy hitter (freq %d > N/K = %d) evicted", heavyTrue, total/k)
	}
	// count is an overestimate bounded by errBound: true <= count <= true+err.
	if h.PubMsgs < heavyTrue || h.PubMsgs > heavyTrue+h.ErrBound {
		t.Fatalf("heavy count %d outside [%d, %d]", h.PubMsgs, heavyTrue, heavyTrue+h.ErrBound)
	}
}

// TestFlowTableConcurrent hits the lock-free fast path and the mutex-guarded
// insert path from many goroutines (run with -race). The topic set fits the
// table, so no evictions occur and every tally must be exact.
func TestFlowTableConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 2_000
		topics     = 4
	)
	ft := NewFlowTable(topics)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				topic := fmt.Sprintf("t/%d", (g+i)%topics)
				e := ft.Published(topic, 8)
				e.Delivered(8)
				if i%10 == 0 {
					e.Dropped(DropQueueFull)
				}
			}
		}(g)
	}
	wg.Wait()

	var pub, del, drop uint64
	for _, s := range ft.Snapshot() {
		pub += s.PubMsgs
		del += s.DelMsgs
		drop += s.DropMsgs
	}
	const want = goroutines * perG
	if pub != want || del != want {
		t.Fatalf("published/delivered = %d/%d, want %d each", pub, del, want)
	}
	if wantDrops := uint64(goroutines * perG / 10); drop != wantDrops {
		t.Fatalf("drops = %d, want %d", drop, wantDrops)
	}
}

// checkSketch holds a table's snapshot to the space-saving guarantees, given
// the true per-topic publish counts, their total n and the delivered and
// dropped totals: at most k rows, counts summing to n, every count within
// [true, true+errBound], every topic above n/k tracked, and delivered and
// dropped exact once <other> is added in.
func checkSketch(ft *FlowTable, k int, truth map[string]uint64, n, delivered, dropped uint64) error {
	var sum, del, drop uint64
	tracked := make(map[string]bool)
	for _, s := range ft.Snapshot() {
		del += s.DelMsgs
		drop += s.DropMsgs
		if s.Topic == FlowOther {
			continue
		}
		tracked[s.Topic] = true
		sum += s.PubMsgs
		if tr := truth[s.Topic]; tr > s.PubMsgs || s.PubMsgs-s.ErrBound > tr {
			return fmt.Errorf("%s: true count %d outside [count-errBound, count] = [%d, %d]",
				s.Topic, tr, s.PubMsgs-s.ErrBound, s.PubMsgs)
		}
	}
	if len(tracked) > k {
		return fmt.Errorf("%d rows, k = %d", len(tracked), k)
	}
	if sum != n {
		return fmt.Errorf("counts sum to %d, %d published", sum, n)
	}
	for topic, tr := range truth {
		if tr*uint64(k) > n && !tracked[topic] {
			return fmt.Errorf("%s (true %d > N/k = %d/%d) not tracked", topic, tr, n, k)
		}
	}
	if del != delivered || drop != dropped {
		return fmt.Errorf("delivered/dropped = %d/%d with <other>, want %d/%d", del, drop, delivered, dropped)
	}
	return nil
}

// TestFlowTableEvictionInvariants drives the eviction path with eight times
// more topics than the table holds — uniform cycling on even seeds, Zipf
// traffic on odd ones — and checks the sketch after every operation.
func TestFlowTableEvictionInvariants(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + int(seed%7)
		topics := 8 * k
		next := func(i int) int { return i % topics }
		if seed%2 == 1 {
			z := rand.NewZipf(rng, 1.1, 1, uint64(topics-1))
			next = func(int) int { return int(z.Uint64()) }
		}
		ft := NewFlowTable(k)
		truth := make(map[string]uint64)
		var n, delivered, dropped uint64
		for i := 0; i < 400; i++ {
			topic := fmt.Sprintf("t/%d", next(i))
			e := ft.Published(topic, 1)
			truth[topic]++
			n++
			if rng.Intn(2) == 0 {
				e.Delivered(1)
				delivered++
			}
			if rng.Intn(5) == 0 {
				e.Dropped(DropQueueFull)
				dropped++
			}
			if err := checkSketch(ft, k, truth, n, delivered, dropped); err != nil {
				t.Fatalf("seed %d, op %d (%s): %v", seed, i, topic, err)
			}
		}
	}
}

// TestFlowTableConcurrentEvictions runs the eviction path from many
// goroutines while another takes snapshots (run with -race): one topic
// carries half the traffic, the rest churns through eight times more topics
// than the table holds. Delivered may not exceed the truth;
// TestFlowTallyRefusesOtherGeneration: the CAS that counts a tally also
// checks its generation, so an add that passed a handle's generation check
// just before a recycle cannot land in the next generation's count; and a
// count that would overflow is refused rather than spilling into the tag.
func TestFlowTallyRefusesOtherGeneration(t *testing.T) {
	var c flowTally
	c.reset(1)
	if !c.add(1, 5) {
		t.Fatal("add refused in its own generation")
	}
	if got := c.reset(2); got != 5 {
		t.Fatalf("reset returned %d, want generation 1's 5", got)
	}
	if c.add(1, 1) {
		t.Fatal("an add of generation 1 landed in generation 2")
	}
	if !c.add(2, 3) || c.load() != 3 {
		t.Fatalf("generation 2 holds %d, want 3", c.load())
	}
	c.reset(3)
	if !c.add(3, flowCountMask) || c.add(3, 1) {
		t.Fatal("a full count accepted one more")
	}
}

// TestFlowTableHandlesAcrossEvictions holds it to the truth exactly.
func TestFlowTableConcurrentEvictions(t *testing.T) {
	const (
		goroutines = 8
		perG       = 2_000
		k          = 8
	)
	ft := NewFlowTable(k)
	check := func(snaps []FlowSnapshot) error {
		rows := len(snaps)
		if rows > 0 && snaps[rows-1].Topic == FlowOther {
			rows--
		}
		if rows > k {
			return fmt.Errorf("%d rows, k = %d", rows, k)
		}
		for i := 1; i < rows; i++ {
			if snaps[i].PubMsgs > snaps[i-1].PubMsgs || snaps[i].Topic == FlowOther {
				return fmt.Errorf("row %d out of order: %+v", i, snaps)
			}
		}
		return nil
	}
	done := make(chan struct{})
	snapErr := make(chan error, 1)
	go func() {
		defer close(snapErr)
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := check(ft.Snapshot()); err != nil {
				snapErr <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			churn := make([]string, 8*k)
			for i := range churn {
				churn[i] = fmt.Sprintf("churn/%d/%d", g, i)
			}
			for i := 0; i < perG; i++ {
				topic := "heavy"
				if i%2 == 1 {
					topic = churn[i%len(churn)]
				}
				ft.Published(topic, 8).Delivered(8)
			}
		}(g)
	}
	wg.Wait()
	close(done)
	if err := <-snapErr; err != nil {
		t.Fatalf("concurrent snapshot: %v", err)
	}

	snaps := ft.Snapshot()
	if err := check(snaps); err != nil {
		t.Fatal(err)
	}
	var del uint64
	for _, s := range snaps {
		del += s.DelMsgs
	}
	if del > goroutines*perG {
		t.Fatalf("delivered %d, only %d happened", del, goroutines*perG)
	}
	if _, ok := snapshotByTopic(ft)["heavy"]; !ok {
		t.Fatalf("heavy hitter (half the traffic) not tracked: %+v", snaps)
	}
}

// TestFlowTableEvictedHandleFoldsIntoOther: once a topic's entry is recycled
// for another topic, what frames still holding the old handle report lands
// in <other>, never on the newcomer's row — also after the entry has been
// recycled so often that the tallies' generation tag has wrapped.
func TestFlowTableEvictedHandleFoldsIntoOther(t *testing.T) {
	ft := NewFlowTable(1)
	old := ft.Published("old", 10)
	old.Delivered(10) // on old's row until the eviction folds it
	ft.Published("new", 10)
	old.Delivered(7)
	old.Dropped(DropQueueFull)
	old.Dropped(DropConnDown)
	old.Dropped(DropConnDown)
	ft.Published("new", 10).Delivered(5)

	byTopic := snapshotByTopic(ft)
	if _, ok := byTopic["old"]; ok {
		t.Fatalf("evicted topic still has a row: %+v", byTopic)
	}
	if nw := byTopic["new"]; nw.DelMsgs != 1 || nw.DelBytes != 5 || nw.DropMsgs != 0 {
		t.Fatalf("newcomer row = %+v, want only its own 1 delivered / 5 bytes", nw)
	}
	other := byTopic[FlowOther]
	if other.DelMsgs != 2 || other.DelBytes != 17 || other.DropQueue != 1 || other.DropConn != 2 {
		t.Fatalf("<other> = %+v, want 2 delivered / 17 bytes, 1 queue-full and 2 conn-down drops", other)
	}

	// 1<<flowTagBits more recycles bring the entry back to old's tag.
	stale := ft.Published("stale", 1)
	for i := 0; i < 1<<flowTagBits; i++ {
		ft.Published(fmt.Sprintf("cycle/%d", i), 1)
	}
	stale.Delivered(3)
	stale.Dropped(DropFrameTooLarge)
	byTopic = snapshotByTopic(ft)
	if row := byTopic[fmt.Sprintf("cycle/%d", 1<<flowTagBits-1)]; row.DelMsgs != 0 || row.DropMsgs != 0 {
		t.Fatalf("a handle 256 recycles old credited the current topic: %+v", row)
	}
	// <other> gains new's row, folded at its eviction, and the stale handle's.
	if other := byTopic[FlowOther]; other.DelMsgs != 4 || other.DelBytes != 25 || other.DropLarge != 1 {
		t.Fatalf("<other> = %+v, want 4 delivered / 25 bytes and 1 frame-too-large drop", other)
	}
}

// TestFlowTableHandlesAcrossEvictions holds handles across many evictions
// from several goroutines while another takes snapshots (run with -race):
// each goroutine keeps its last handles in a ring and accounts deliveries
// and drops on one picked at random, some of them long recycled. Delivered
// and dropped totals, rows plus <other>, must equal the truth exactly.
func TestFlowTableHandlesAcrossEvictions(t *testing.T) {
	const (
		goroutines = 6
		perG       = 3_000
		k          = 4
		held       = 16
	)
	ft := NewFlowTable(k)
	topics := make([]string, 8*k)
	for i := range topics {
		topics[i] = fmt.Sprintf("t/%d", i)
	}
	done := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			ft.Snapshot()
		}
	}()
	var del, delBytes, drops [goroutines]uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var ring [held]FlowHandle
			for i := 0; i < perG; i++ {
				ring[i%held] = ft.Published(topics[rng.Intn(len(topics))], 1)
				h := ring[rng.Intn(held)]
				if h == (FlowHandle{}) {
					continue
				}
				n := 1 + rng.Intn(100)
				h.Delivered(n)
				del[g]++
				delBytes[g] += uint64(n)
				if rng.Intn(3) == 0 {
					reason := rng.Intn(NumDropReasons)
					h.Dropped(reason)
					h.Dropped(reason)
					drops[g] += 2
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	snapWG.Wait()

	var wantDel, wantBytes, wantDrops uint64
	for g := range del {
		wantDel += del[g]
		wantBytes += delBytes[g]
		wantDrops += drops[g]
	}
	var gotDel, gotBytes, gotDrops uint64
	for _, s := range ft.Snapshot() {
		gotDel += s.DelMsgs
		gotBytes += s.DelBytes
		gotDrops += s.DropMsgs
	}
	if gotDel != wantDel || gotBytes != wantBytes || gotDrops != wantDrops {
		t.Fatalf("delivered msgs/bytes, dropped = %d/%d, %d with <other>; want %d/%d, %d",
			gotDel, gotBytes, gotDrops, wantDel, wantBytes, wantDrops)
	}
}

// TestFlowEntryInvalidDropReasonIgnored: out-of-range reasons are discarded,
// not a panic or a misattributed bucket.
func TestFlowEntryInvalidDropReasonIgnored(t *testing.T) {
	ft := NewFlowTable(2)
	e := ft.Published("a", 1)
	e.Dropped(-1)
	e.Dropped(NumDropReasons)
	if s := snapshotByTopic(ft)["a"]; s.DropMsgs != 0 {
		t.Fatalf("invalid reasons counted: %+v", s)
	}
}

func BenchmarkFlowPublishedHit(b *testing.B) {
	ft := NewFlowTable(DefaultFlowK)
	ft.Published("bench/topic", 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ft.Published("bench/topic", 256).Delivered(256)
	}
}

// BenchmarkFlowPublishedChurn is the miss path: 256 topics cycled through a
// DefaultFlowK table, so every publish evicts the oldest entry.
func BenchmarkFlowPublishedChurn(b *testing.B) {
	ft := NewFlowTable(DefaultFlowK)
	topics := make([]string, 256)
	for i := range topics {
		topics[i] = fmt.Sprintf("bench/topic/%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Published(topics[i%len(topics)], 256).Delivered(256)
	}
}

// BenchmarkFlowPublishedParallel races lock-free hits against misses: half
// the goroutines republish one hot topic, the other half churn 256 topics
// through a DefaultFlowK table.
func BenchmarkFlowPublishedParallel(b *testing.B) {
	ft := NewFlowTable(DefaultFlowK)
	topics := make([]string, 256)
	for i := range topics {
		topics[i] = fmt.Sprintf("bench/topic/%d", i)
	}
	var workers atomic.Int32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		churn := workers.Add(1)%2 == 0
		for i := 0; pb.Next(); i++ {
			topic := "bench/hot"
			if churn {
				topic = topics[i%len(topics)]
			}
			ft.Published(topic, 256).Delivered(256)
		}
	})
}
