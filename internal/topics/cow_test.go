package topics

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// patternAlphabet is the pool the randomized tests draw from: exact topics,
// single-segment wildcards in every position, and terminal ** at several
// depths — including the shapes whose one-or-more semantics ("a/**" matches
// "a/b" but not "a") historically attract bugs.
var patternAlphabet = []string{
	"a", "a/b", "a/b/c", "a/b/d", "a/c/c",
	"*", "*/*", "*/b", "a/*", "a/*/c", "*/*/c",
	"**", "a/**", "a/b/**", "b/**",
	"Services/*/Advertisement", "Services/**",
}

var topicAlphabet = []string{
	"a", "b", "a/b", "a/c", "a/b/c", "a/b/d", "a/c/c", "a/b/c/d",
	"Services/BrokerDiscoveryNodes/BrokerAdvertisement",
	"Services/BrokerDiscoveryNodes/DiscoveryRequest",
}

// checkAgainstLocked asserts the COW table and the locked reference agree on
// every topic in the alphabet, across every match method.
func checkAgainstLocked(t *testing.T, cow *Table, ref *lockedTable) {
	t.Helper()
	var sc Scratch
	for _, topic := range topicAlphabet {
		want := ref.match(topic)
		sort.Strings(want)

		got := cow.Match(topic)
		if !equalStrings(got, want) {
			t.Fatalf("Match(%q) = %v, locked reference = %v", topic, got, want)
		}
		if (got != nil) != ref.hasMatch(topic) {
			t.Fatalf("Match(%q) = %v, locked reference hasMatch = %v", topic, got, ref.hasMatch(topic))
		}
		unique := map[string]int{}
		cow.MatchEachUnique(topic, &sc, func(id string, _ any) { unique[id]++ })
		if len(unique) != len(want) {
			t.Fatalf("MatchEachUnique(%q) visited %v, want %v", topic, unique, want)
		}
		for _, id := range want {
			if unique[id] != 1 {
				t.Fatalf("MatchEachUnique(%q) visited %s %d times", topic, id, unique[id])
			}
		}
	}
}

// FuzzTableCOWvsLocked drives the same mutation script against the COW table
// and the locked reference and requires identical match results after every
// step. The script byte-string decodes to subscribe/unsubscribe operations
// over a small id/pattern space, so the fuzzer explores resubscription,
// partial unsubscription, index recycling and trie pruning interleavings.
func FuzzTableCOWvsLocked(f *testing.F) {
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{0, 0x80, 0})                // subscribe, unsubscribe, resubscribe
	f.Add([]byte{13, 14, 0x8d, 13})          // terminal ** churn: "a/**", "a/b/**"
	f.Add([]byte{5, 6, 7, 0x85, 0x86, 0x87}) // wildcard-one churn
	f.Add([]byte{11, 0x8b, 11, 0x8b, 11})    // "**" flapping
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 64 {
			return
		}
		cow := NewTable()
		ref := newLockedTable()
		for _, op := range script {
			id := fmt.Sprintf("id%d", (op>>5)&0x3)
			pattern := patternAlphabet[int(op&0x1f)%len(patternAlphabet)]
			if op&0x80 != 0 {
				cow.Unsubscribe(id, pattern)
				ref.Unsubscribe(id, pattern)
			} else {
				if err := cow.Subscribe(id, pattern); err != nil {
					t.Fatalf("subscribe %q: %v", pattern, err)
				}
				if err := ref.Subscribe(id, pattern); err != nil {
					t.Fatalf("reference subscribe %q: %v", pattern, err)
				}
			}
			checkAgainstLocked(t, cow, ref)
		}
	})
}

// TestTableCOWvsLockedRandom is the long-running property-test cousin of the
// fuzz target: thousands of random mutations with full cross-checks after
// each, under several seeds, including bulk UnsubscribeAll.
func TestTableCOWvsLockedRandom(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cow := NewTable()
		ref := newLockedTable()
		for step := 0; step < 1500; step++ {
			id := fmt.Sprintf("id%d", rng.Intn(6))
			pattern := patternAlphabet[rng.Intn(len(patternAlphabet))]
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5:
				if err := cow.Subscribe(id, pattern); err != nil {
					t.Fatal(err)
				}
				_ = ref.Subscribe(id, pattern)
			case 6, 7, 8:
				if cow.Unsubscribe(id, pattern) != ref.Unsubscribe(id, pattern) {
					t.Fatalf("seed %d step %d: Unsubscribe(%s, %q) disagreed",
						seed, step, id, pattern)
				}
			case 9:
				if cow.UnsubscribeAll(id) != ref.UnsubscribeAll(id) {
					t.Fatalf("seed %d step %d: UnsubscribeAll(%s) disagreed",
						seed, step, id)
				}
			}
			if step%25 == 0 {
				checkAgainstLocked(t, cow, ref)
			}
		}
		checkAgainstLocked(t, cow, ref)
	}
}

// TestMatchEachUniqueValues proves the registration value rides the match
// path: the latest non-nil value per (id, pattern) is handed back, a
// subscriber matching through several patterns is visited once, and values
// survive snapshot churn on other keys.
func TestMatchEachUniqueValues(t *testing.T) {
	tbl := NewTable()
	type queue struct{ name string }
	q1 := &queue{"q1"}
	if _, err := tbl.SubscribeValue("c1", "a/*", q1); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.SubscribeValue("c1", "a/**", q1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Subscribe("c2", "a/b"); err != nil {
		t.Fatal(err)
	}

	var sc Scratch
	got := map[string]any{}
	tbl.MatchEachUnique("a/b", &sc, func(id string, val any) {
		if _, dup := got[id]; dup {
			t.Fatalf("subscriber %s visited twice", id)
		}
		got[id] = val
	})
	if len(got) != 2 {
		t.Fatalf("visited %v, want c1 and c2", got)
	}
	if got["c1"] != q1 {
		t.Fatalf("c1 value = %v, want %v", got["c1"], q1)
	}
	if got["c2"] != nil {
		t.Fatalf("c2 value = %v, want nil", got["c2"])
	}

	// A duplicate registration with a fresh value must refresh the
	// attachment (a reconnecting client hands in its new delivery queue).
	q2 := &queue{"q2"}
	added, err := tbl.SubscribeValue("c1", "a/*", q2)
	if err != nil || added {
		t.Fatalf("refresh registration: added=%v err=%v", added, err)
	}
	tbl.Unsubscribe("c1", "a/**")
	got = map[string]any{}
	tbl.MatchEachUnique("a/b", &sc, func(id string, val any) { got[id] = val })
	if got["c1"] != q2 {
		t.Fatalf("after refresh c1 value = %v, want %v", got["c1"], q2)
	}
}

// TestCOWSnapshotIsolation proves a matcher iterating an old snapshot is
// untouched by concurrent mutation: the subscription set it observes is the
// one that existed when it loaded the root.
func TestCOWSnapshotIsolation(t *testing.T) {
	tbl := NewTable()
	for i := 0; i < 8; i++ {
		if err := tbl.Subscribe(fmt.Sprintf("id%d", i), "a/b"); err != nil {
			t.Fatal(err)
		}
	}
	var sc Scratch
	seen := 0
	tbl.MatchEachUnique("a/b", &sc, func(id string, _ any) {
		seen++
		if seen == 1 {
			// Mutate mid-iteration: the walk must still deliver the
			// generation it started on.
			for i := 0; i < 8; i++ {
				tbl.Unsubscribe(fmt.Sprintf("id%d", i), "a/b")
			}
			if err := tbl.Subscribe("late", "a/b"); err != nil {
				t.Fatal(err)
			}
		}
	})
	if seen != 8 {
		t.Fatalf("iteration over the old snapshot saw %d ids, want 8", seen)
	}
	if got := tbl.Match("a/b"); len(got) != 1 || got[0] != "late" {
		t.Fatalf("new snapshot = %v, want [late]", got)
	}
}

// TestConcurrentSubscribeMatchRace hammers the atomic snapshot swap: writers
// churn subscriptions while readers match with private scratches. Run with
// -race this proves the publish path shares nothing mutable with writers;
// the final consistency check proves no update was lost.
func TestConcurrentSubscribeMatchRace(t *testing.T) {
	tbl := NewTable()
	const writers, readers, iters = 4, 4, 400

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			id := fmt.Sprintf("writer%d", w)
			for i := 0; i < iters; i++ {
				pattern := patternAlphabet[rng.Intn(len(patternAlphabet))]
				if rng.Intn(3) == 0 {
					tbl.Unsubscribe(id, pattern)
				} else if err := tbl.Subscribe(id, pattern); err != nil {
					t.Error(err)
					return
				}
			}
			tbl.UnsubscribeAll(id)
		}(w)
	}
	const stable = "stable"
	if err := tbl.Subscribe(stable, "a/**"); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var sc Scratch
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < iters; i++ {
				topic := topicAlphabet[rng.Intn(len(topicAlphabet))]
				found := false
				tbl.MatchEachUnique(topic, &sc, func(id string, _ any) {
					if id == stable {
						found = true
					}
				})
				if Match("a/**", topic) && !found {
					t.Errorf("stable subscriber missing from Match(%q)", topic)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	// After the churn the table must hold exactly the stable registration.
	if got := tbl.Match("a/b"); len(got) != 1 || got[0] != stable {
		t.Fatalf("after churn Match(a/b) = %v, want [%s]", got, stable)
	}
	if n := tbl.Subscribers(); n != 1 {
		t.Fatalf("after churn Subscribers() = %d, want 1", n)
	}
}

// TestScratchEpochWrap forces the dedup epoch counter through its wrap and
// proves stale stamps cannot suppress legitimate visits afterwards.
func TestScratchEpochWrap(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Subscribe("x", "a"); err != nil {
		t.Fatal(err)
	}
	sc := &Scratch{}
	tbl.MatchEachUnique("a", sc, func(string, any) {}) // size the scratch
	sc.seq = ^uint32(0)                                // next call wraps to 0
	for i := range sc.seen {
		sc.seen[i] = ^uint32(0) // poison: stale stamps equal to pre-wrap seq
	}
	visited := 0
	tbl.MatchEachUnique("a", sc, func(string, any) { visited++ })
	if visited != 1 {
		t.Fatalf("post-wrap visit count = %d, want 1", visited)
	}
}
