package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestJournalEmitSinceOrder reads the journal the way scrapes do: Since
// returns what is newer than a sequence number, in order, and leaves it there
// for the next reader.
func TestJournalEmitSinceOrder(t *testing.T) {
	j := NewJournal(16, func() time.Time { return time.Unix(100, 0) })
	j.Emit(EventNodeStart, "addr", "")
	j.Emit(EventLinkUp, "peer-1", "role=broker")
	j.Emit(EventLinkDown, "peer-1", "read error")

	evs := j.Since(0)
	if len(evs) != 3 {
		t.Fatalf("read %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	if evs[1].Type != EventLinkUp || evs[1].Subject != "peer-1" {
		t.Fatalf("unexpected event: %+v", evs[1])
	}
	if got := j.Since(0); len(got) != 3 {
		t.Fatalf("a second read from 0 returned %d events, want the same 3", len(got))
	}
	if got := j.Since(2); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("Since(2) = %+v, want only seq 3", got)
	}
	if got := j.Since(3); got != nil {
		t.Fatalf("Since(3) returned %d events, want nil", len(got))
	}
}

// TestJournalWraparound fills a tiny ring past capacity and asserts the
// oldest events are overwritten: a read holds the newest capacity-many
// events in seq order and the loss is counted, so the collector-side gap
// detector has something to see.
func TestJournalWraparound(t *testing.T) {
	j := NewJournal(4, nil)
	for i := 0; i < 10; i++ {
		j.Emit(EventReconnectAttempt, fmt.Sprintf("target-%d", i), "")
	}
	if d := j.Dropped(); d != 6 {
		t.Fatalf("dropped = %d, want 6", d)
	}
	evs := j.Since(0)
	if len(evs) != 4 {
		t.Fatalf("read %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		want := uint64(7 + i) // seqs 7..10 survive
		if ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	// Post-wrap emissions continue the sequence.
	j.Emit(EventReconnectAttempt, "target", "")
	if evs := j.Since(10); len(evs) != 1 || evs[0].Seq != 11 {
		t.Fatalf("post-wrap read = %+v, want single seq-11 event", evs)
	}
}

// TestJournalConcurrentEmit exercises the ring under -race: concurrent
// emitters and a reader that moves its watermark the way a collector does
// must never see a duplicate or zero sequence number.
func TestJournalConcurrentEmit(t *testing.T) {
	j := NewJournal(64, nil)
	const goroutines, perG = 8, 200

	seen := make(map[uint64]bool)
	var seenMu sync.Mutex
	var since uint64
	drain := func() {
		for _, ev := range j.Since(since) {
			seenMu.Lock()
			if ev.Seq == 0 || seen[ev.Seq] {
				t.Errorf("bad or duplicate seq %d", ev.Seq)
			}
			seen[ev.Seq] = true
			seenMu.Unlock()
			since = ev.Seq
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				drain()
			}
		}
	}()
	var emitters sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		emitters.Add(1)
		go func(g int) {
			defer emitters.Done()
			for i := 0; i < perG; i++ {
				j.Emit(EventLinkUp, fmt.Sprintf("peer-%d", g), "")
			}
		}(g)
	}
	emitters.Wait()
	close(stop)
	wg.Wait()
	drain()

	if j.Seq() != goroutines*perG {
		t.Fatalf("seq = %d, want %d", j.Seq(), goroutines*perG)
	}
	seenMu.Lock()
	kept := uint64(len(seen))
	seenMu.Unlock()
	// Reads leave events in place, so an event can be both seen and later
	// overwritten; one never seen must have been overwritten first.
	if kept+j.Dropped() < goroutines*perG {
		t.Fatalf("kept %d + dropped %d < emitted %d", kept, j.Dropped(), goroutines*perG)
	}
}

func TestNilJournalIsSafe(t *testing.T) {
	var j *Journal
	j.Emit(EventLinkUp, "x", "y")
	if j.Since(0) != nil || j.Len() != 0 || j.Dropped() != 0 || j.Seq() != 0 {
		t.Fatal("nil journal must be inert")
	}
}
