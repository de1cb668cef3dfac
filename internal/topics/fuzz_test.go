package topics

import (
	"sort"
	"testing"
)

// FuzzTableMatchDifferential cross-checks the trie-based Table.Match (the
// sorted view of MatchEachUnique, the one trie walk) against the linear Match
// predicate: for any set of registered patterns, the trie must report
// exactly the subscribers whose pattern matches the topic linearly, each once.
func FuzzTableMatchDifferential(f *testing.F) {
	f.Add("a/b/c", "a/*/c", "a/b/c")
	f.Add("a/**", "a/b", "a/b/c")
	f.Add("*", "**", "x")
	f.Add("Services/*/Advertisement", "Services/**", "Services/BrokerDiscoveryNodes/BrokerAdvertisement")
	f.Add("a", "a/b", "a")
	f.Add("*/*", "x/*", "x/y")
	f.Fuzz(func(t *testing.T, p1, p2, topic string) {
		if Validate(topic) != nil {
			return // only concrete topics are publishable
		}
		tbl := NewTable()
		patterns := map[string]string{}
		if ValidatePattern(p1) == nil {
			if err := tbl.Subscribe("id1", p1); err != nil {
				t.Fatalf("subscribe %q: %v", p1, err)
			}
			patterns["id1"] = p1
		}
		if ValidatePattern(p2) == nil {
			if err := tbl.Subscribe("id2", p2); err != nil {
				t.Fatalf("subscribe %q: %v", p2, err)
			}
			patterns["id2"] = p2
		}

		var want []string
		for id, pattern := range patterns {
			if Match(pattern, topic) {
				want = append(want, id)
			}
		}
		sort.Strings(want)

		got := tbl.Match(topic)
		if !equalStrings(got, want) {
			t.Fatalf("Match(%q) = %v, linear reference = %v (patterns %v)",
				topic, got, want, patterns)
		}
	})
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
