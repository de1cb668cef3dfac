package obs

import (
	"fmt"
	"math/rand"
	"sync"
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
	if e := ft.Published("a", 10); e != nil {
		t.Fatal("nil table returned an entry")
	}
	if s := ft.Snapshot(); s != nil {
		t.Fatalf("nil table snapshot = %v", s)
	}
	var e *FlowEntry
	e.Delivered(5)          // must not panic
	e.Dropped(DropConnDown) // must not panic
}

func TestFlowTableAccounting(t *testing.T) {
	ft := NewFlowTable(8)
	for i := 0; i < 5; i++ {
		e := ft.Published("sensors/temp", 100)
		e.Delivered(100)
	}
	e := ft.Published("sensors/humidity", 40)
	e.Dropped(DropQueueFull)
	e.DroppedN(DropConnDown, 2)

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

	// The evicted entry handle stays safe: frames in flight may still hold
	// it, and its updates must not panic (they are simply lost to snapshots).
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
// than the table holds. Updates to evicted handles are lost, so delivered may
// only fall short of the truth.
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

// TestFlowEntryInvalidDropReasonIgnored: out-of-range reasons are discarded,
// not a panic or a misattributed bucket.
func TestFlowEntryInvalidDropReasonIgnored(t *testing.T) {
	ft := NewFlowTable(2)
	e := ft.Published("a", 1)
	e.Dropped(-1)
	e.Dropped(NumDropReasons)
	e.DroppedN(DropQueueFull, 0)
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
