package replay

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// The store never looks inside a frame, so the tests use readable strings.
func add(s *Store, topic, frame string) { s.Add(topic, []byte(frame)) }

func replayed(s *Store, pattern string, limit int) string {
	var out []string
	for _, f := range s.Replay(pattern, limit) {
		out = append(out, string(f))
	}
	return strings.Join(out, " ")
}

func TestAddAndReplayExact(t *testing.T) {
	s := NewStore(8)
	add(s, "a/b", "1")
	add(s, "a/b", "2")
	add(s, "a/c", "x")
	if got := replayed(s, "a/b", 0); got != "1 2" {
		t.Fatalf("replayed %q, want 1 2 in that order", got)
	}
}

func TestReplayWildcard(t *testing.T) {
	s := NewStore(8)
	add(s, "a/b", "1")
	add(s, "a/c", "2")
	add(s, "z/z", "3")
	if got := replayed(s, "a/*", 0); got != "1 2" {
		t.Fatalf("replayed %q for a/*, want 1 2", got)
	}
	if got := replayed(s, "**", 0); got != "1 2 3" {
		t.Fatalf("replayed %q for **, want 1 2 3", got)
	}
}

func TestRingEviction(t *testing.T) {
	s := NewStore(4)
	for i := 0; i < 10; i++ {
		add(s, "t/t", fmt.Sprint(i))
	}
	if got := replayed(s, "t/t", 0); got != "6 7 8 9" { // last four, oldest first
		t.Fatalf("retained %q, want 6 7 8 9", got)
	}
}

func TestReplayLimit(t *testing.T) {
	s := NewStore(16)
	for i := 0; i < 10; i++ {
		add(s, "t/t", fmt.Sprint(i))
	}
	if got := replayed(s, "t/t", 3); got != "7 8 9" {
		t.Fatalf("limit kept %q, want 7 8 9", got)
	}
}

// TestReplayLimitAcrossTopicsIsMostRecent: a limit keeps the most recently
// added frames over every matching topic, in arrival order — not the tail of
// whichever topic the map walk happened to visit last.
func TestReplayLimitAcrossTopicsIsMostRecent(t *testing.T) {
	for run := 0; run < 20; run++ { // map order differs from run to run
		s := NewStore(8)
		for i := 0; i <= 3; i++ {
			for _, topic := range []string{"x", "y", "z"} {
				add(s, "a/"+topic, fmt.Sprintf("%s%d", topic, i))
			}
		}
		if got := replayed(s, "a/*", 3); got != "x3 y3 z3" {
			t.Fatalf("Replay(a/*, 3) = %q, want x3 y3 z3", got)
		}
		if got := replayed(s, "a/*", 5); got != "y2 z2 x3 y3 z3" {
			t.Fatalf("Replay(a/*, 5) = %q, want y2 z2 x3 y3 z3", got)
		}
	}
}

func TestIgnoresEmptyTopic(t *testing.T) {
	s := NewStore(4)
	add(s, "", "no-topic")
	if s.TopicCount() != 0 {
		t.Fatalf("frame without a topic retained: %d topics", s.TopicCount())
	}
}

func TestReplayInvalidPattern(t *testing.T) {
	s := NewStore(4)
	add(s, "a/b", "1")
	if got := s.Replay("a//b", 0); got != nil {
		t.Fatalf("invalid pattern served %d frames", len(got))
	}
}

func TestReplayedFramesAreCopies(t *testing.T) {
	s := NewStore(4)
	frame := []byte("orig")
	s.Add("a/b", frame)
	frame[0] = 'X' // the caller's pooled buffer moves on to another event
	got := s.Replay("a/b", 0)
	if string(got[0]) != "orig" {
		t.Fatal("store aliased the caller's frame")
	}
	got[0][0] = 'Y' // mutate the replayed copy
	if again := s.Replay("a/b", 0); string(again[0]) != "orig" {
		t.Fatal("replay aliased stored history")
	}
}

func TestDefaultCapacity(t *testing.T) {
	if NewStore(0).Capacity() != DefaultCapacity {
		t.Fatal("capacity not defaulted")
	}
}

func TestStats(t *testing.T) {
	s := NewStore(4)
	add(s, "a/b", "1")
	add(s, "a/b", "2")
	_ = s.Replay("a/b", 1)
	stored, served := s.Stats()
	if stored != 2 || served != 1 {
		t.Fatalf("stats = (%d, %d), want (2, 1)", stored, served)
	}
}

func TestConcurrentAddReplay(t *testing.T) {
	s := NewStore(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				add(s, fmt.Sprintf("c/t%d", g%3), "x")
				s.Replay("c/*", 10)
			}
		}(g)
	}
	wg.Wait()
	if s.TopicCount() != 3 {
		t.Fatalf("topics = %d", s.TopicCount())
	}
}

func BenchmarkAdd(b *testing.B) {
	s := NewStore(256)
	frame := []byte("an encoded publish frame of some tens of bytes")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add("bench/topic", frame)
	}
}

func BenchmarkReplay(b *testing.B) {
	s := NewStore(256)
	for i := 0; i < 256; i++ {
		add(s, "bench/topic", "payload")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Replay("bench/*", 32)
	}
}
