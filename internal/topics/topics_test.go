package topics

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	good := []string{"a", "a/b", "Services/BrokerDiscoveryNodes/BrokerAdvertisement"}
	for _, s := range good {
		if err := Validate(s); err != nil {
			t.Errorf("Validate(%q) = %v", s, err)
		}
	}
	bad := []string{"", "/a", "a/", "a//b", "a/*/b", "a/**", "*"}
	for _, s := range bad {
		if err := Validate(s); err == nil {
			t.Errorf("Validate(%q) accepted", s)
		}
	}
	deep := strings.Repeat("x/", MaxDepth) + "x"
	if err := Validate(deep); err == nil {
		t.Error("over-deep topic accepted")
	}
}

func TestValidatePattern(t *testing.T) {
	good := []string{"a", "a/*", "a/*/c", "a/**", "**", "*"}
	for _, s := range good {
		if err := ValidatePattern(s); err != nil {
			t.Errorf("ValidatePattern(%q) = %v", s, err)
		}
	}
	bad := []string{"", "/a", "a//b", "a/**/c", "**/a"}
	for _, s := range bad {
		if err := ValidatePattern(s); err == nil {
			t.Errorf("ValidatePattern(%q) accepted", s)
		}
	}
}

func TestMatch(t *testing.T) {
	cases := []struct {
		pattern, topic string
		want           bool
	}{
		{"a/b/c", "a/b/c", true},
		{"a/b/c", "a/b", false},
		{"a/b", "a/b/c", false},
		{"a/*/c", "a/b/c", true},
		{"a/*/c", "a/x/c", true},
		{"a/*/c", "a/b/d", false},
		{"*", "a", true},
		{"*", "a/b", false},
		{"a/**", "a/b", true},
		{"a/**", "a/b/c/d", true},
		{"a/**", "a", false},
		{"**", "anything/at/all", true},
		{"Services/*/BrokerAdvertisement", AdvertisementTopic, true},
		{"Services/**", DiscoveryTopic, true},
	}
	for _, c := range cases {
		if got := Match(c.pattern, c.topic); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.pattern, c.topic, got, c.want)
		}
	}
}

func TestTableExact(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Subscribe("s1", "a/b"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Subscribe("s2", "a/b"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Subscribe("s3", "a/c"); err != nil {
		t.Fatal(err)
	}
	got := tbl.Match("a/b")
	if len(got) != 2 || got[0] != "s1" || got[1] != "s2" {
		t.Fatalf("Match = %v", got)
	}
	if got := tbl.Match("a/d"); got != nil {
		t.Fatalf("Match(a/d) = %v, want nil", got)
	}
}

func TestTableWildcards(t *testing.T) {
	tbl := NewTable()
	mustSub := func(id, p string) {
		t.Helper()
		if err := tbl.Subscribe(id, p); err != nil {
			t.Fatal(err)
		}
	}
	mustSub("one", "a/*/c")
	mustSub("any", "a/**")
	mustSub("exact", "a/b/c")
	mustSub("root", "**")

	got := tbl.Match("a/b/c")
	want := []string{"any", "exact", "one", "root"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Match = %v, want %v", got, want)
	}
	got = tbl.Match("a")
	// "a/**" must NOT match bare "a"; "**" must (non-empty suffix).
	if fmt.Sprint(got) != fmt.Sprint([]string{"root"}) {
		t.Fatalf("Match(a) = %v", got)
	}
}

func TestTableDuplicateSubscribeIdempotent(t *testing.T) {
	tbl := NewTable()
	_ = tbl.Subscribe("s", "a/b")
	_ = tbl.Subscribe("s", "a/b")
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
	got := tbl.Match("a/b")
	if len(got) != 1 {
		t.Fatalf("Match = %v", got)
	}
}

func TestTableSubscribeInvalid(t *testing.T) {
	tbl := NewTable()
	if err := tbl.Subscribe("s", "a//b"); err == nil {
		t.Fatal("invalid pattern accepted")
	}
}

func TestUnsubscribe(t *testing.T) {
	tbl := NewTable()
	_ = tbl.Subscribe("s", "a/b")
	_ = tbl.Subscribe("s", "a/**")
	if !tbl.Unsubscribe("s", "a/b") {
		t.Fatal("Unsubscribe returned false for live registration")
	}
	if tbl.Unsubscribe("s", "a/b") {
		t.Fatal("double Unsubscribe returned true")
	}
	if tbl.Unsubscribe("ghost", "a/**") {
		t.Fatal("Unsubscribe for unknown id returned true")
	}
	if got := tbl.Match("a/b"); len(got) != 1 || got[0] != "s" {
		t.Fatalf("Match after partial unsubscribe = %v", got)
	}
	if !tbl.Unsubscribe("s", "a/**") {
		t.Fatal("Unsubscribe ** failed")
	}
	if got := tbl.Match("a/b"); got != nil {
		t.Fatalf("Match after full unsubscribe = %v", got)
	}
	if tbl.Len() != 0 || tbl.Subscribers() != 0 {
		t.Fatalf("table not empty: len=%d subs=%d", tbl.Len(), tbl.Subscribers())
	}
}

func TestUnsubscribeAll(t *testing.T) {
	tbl := NewTable()
	_ = tbl.Subscribe("s", "a/b")
	_ = tbl.Subscribe("s", "c/*")
	_ = tbl.Subscribe("other", "a/b")
	if n := tbl.UnsubscribeAll("s"); n != 2 {
		t.Fatalf("UnsubscribeAll = %d, want 2", n)
	}
	if got := tbl.Match("a/b"); len(got) != 1 || got[0] != "other" {
		t.Fatalf("Match = %v", got)
	}
	if n := tbl.UnsubscribeAll("s"); n != 0 {
		t.Fatalf("second UnsubscribeAll = %d, want 0", n)
	}
}

func TestPatterns(t *testing.T) {
	tbl := NewTable()
	_ = tbl.Subscribe("s", "b/c")
	_ = tbl.Subscribe("s", "a/**")
	got := tbl.Patterns("s")
	if fmt.Sprint(got) != fmt.Sprint([]string{"a/**", "b/c"}) {
		t.Fatalf("Patterns = %v", got)
	}
	if tbl.Patterns("ghost") != nil {
		t.Fatal("Patterns for unknown id not nil")
	}
}

// TestMatchPresence: Match is nil exactly when no registration matches, which
// is how callers ask whether anyone wants a topic at all.
func TestMatchPresence(t *testing.T) {
	tbl := NewTable()
	_ = tbl.Subscribe("s", "a/*/c")
	if tbl.Match("a/b/c") == nil {
		t.Fatal("Match missed a/b/c")
	}
	if got := tbl.Match("a/b"); got != nil {
		t.Fatalf("Match(a/b) = %v, want nil", got)
	}
	_ = tbl.Subscribe("w", "x/**")
	if tbl.Match("x/anything") == nil {
		t.Fatal("Match missed x/**")
	}
}

// TestMatchDedupsAcrossPatterns: a subscriber whose several patterns all match
// is reported once.
func TestMatchDedupsAcrossPatterns(t *testing.T) {
	tbl := NewTable()
	for _, p := range []string{"a/b", "a/*", "a/**", "**"} {
		_ = tbl.Subscribe("s", p)
	}
	_ = tbl.Subscribe("other", "*/b")
	if got := tbl.Match("a/b"); fmt.Sprint(got) != fmt.Sprint([]string{"other", "s"}) {
		t.Fatalf("Match(a/b) = %v, want [other s]", got)
	}
}

// TestTableAgreesWithMatch is the central property test: for random patterns
// and topics, the trie must agree exactly with the reference Match function.
func TestTableAgreesWithMatch(t *testing.T) {
	segments := []string{"a", "b", "c", "*", "**"}
	rng := rand.New(rand.NewSource(99))
	randPattern := func() string {
		n := rng.Intn(4) + 1
		parts := make([]string, n)
		for i := range parts {
			if i == n-1 {
				parts[i] = segments[rng.Intn(len(segments))]
			} else {
				parts[i] = segments[rng.Intn(len(segments)-1)] // no ** mid-pattern
			}
		}
		return strings.Join(parts, "/")
	}
	randTopic := func() string {
		n := rng.Intn(4) + 1
		parts := make([]string, n)
		for i := range parts {
			parts[i] = segments[rng.Intn(3)] // concrete only
		}
		return strings.Join(parts, "/")
	}

	for trial := 0; trial < 300; trial++ {
		tbl := NewTable()
		patterns := make(map[string]string) // id -> pattern
		for i := 0; i < 10; i++ {
			id := fmt.Sprintf("sub%d", i)
			p := randPattern()
			if err := tbl.Subscribe(id, p); err != nil {
				t.Fatalf("Subscribe(%q): %v", p, err)
			}
			patterns[id] = p
		}
		topic := randTopic()
		got := tbl.Match(topic)
		gotSet := make(map[string]bool, len(got))
		for _, id := range got {
			gotSet[id] = true
		}
		for id, p := range patterns {
			want := Match(p, topic)
			if gotSet[id] != want {
				t.Fatalf("trial %d: pattern %q vs topic %q: trie=%v reference=%v",
					trial, p, topic, gotSet[id], want)
			}
		}
	}
}

func TestSubscribeUnsubscribeProperty(t *testing.T) {
	// Subscribing then fully unsubscribing must always empty the table.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable()
		type reg struct{ id, p string }
		var regs []reg
		count := int(n%20) + 1
		for i := 0; i < count; i++ {
			id := fmt.Sprintf("s%d", rng.Intn(5))
			p := fmt.Sprintf("t%d/x%d", rng.Intn(3), rng.Intn(3))
			if err := tbl.Subscribe(id, p); err != nil {
				return false
			}
			regs = append(regs, reg{id, p})
		}
		for _, r := range regs {
			tbl.Unsubscribe(r.id, r.p) // dup regs return false; fine
		}
		return tbl.Len() == 0 && tbl.Subscribers() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableConcurrency(t *testing.T) {
	tbl := NewTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("g%d", g)
			for i := 0; i < 200; i++ {
				p := fmt.Sprintf("a/b%d/c%d", i%3, g%2)
				_ = tbl.Subscribe(id, p)
				tbl.Match("a/b1/c0")
				tbl.Unsubscribe(id, p)
			}
		}(g)
	}
	wg.Wait()
	if tbl.Len() != 0 {
		t.Fatalf("table not empty after balanced ops: %d", tbl.Len())
	}
}

func BenchmarkTableMatch(b *testing.B) {
	tbl := NewTable()
	for i := 0; i < 1000; i++ {
		_ = tbl.Subscribe(fmt.Sprintf("s%d", i), fmt.Sprintf("a/b%d/c%d", i%50, i%7))
	}
	_ = tbl.Subscribe("wild", "a/*/c1")
	_ = tbl.Subscribe("any", "a/**")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Match("a/b17/c3")
	}
}

// BenchmarkTableSubscribeWide is one subscription write under a wide node:
// Subscribe plus Unsubscribe of a fresh segment beside N siblings. What a
// write copies shows in B/op: the levels on the new key's path, not the N.
func BenchmarkTableSubscribeWide(b *testing.B) {
	for _, n := range []int{16, 1024, 16384} {
		tbl := NewTable()
		for i := 0; i < n; i++ {
			_ = tbl.Subscribe("ballast", fmt.Sprintf("wide/s%d", i))
		}
		fresh := make([]string, 1024)
		for i := range fresh {
			fresh[i] = fmt.Sprintf("wide/fresh%d", i)
		}
		b.Run(fmt.Sprintf("siblings=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pattern := fresh[i%len(fresh)]
				_ = tbl.Subscribe("writer", pattern)
				tbl.Unsubscribe("writer", pattern)
			}
		})
	}
}

func BenchmarkMatchFunc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Match("Services/*/BrokerAdvertisement", AdvertisementTopic)
	}
}

// BenchmarkTableMatchEachUnique is the walk the broker runs per publish: a
// kept Scratch, a visit closure built once, nothing allocated.
func BenchmarkTableMatchEachUnique(b *testing.B) {
	tbl := NewTable()
	for i := 0; i < 1000; i++ {
		_ = tbl.Subscribe(fmt.Sprintf("s%d", i), fmt.Sprintf("a/b%d/c%d", i%50, i%7))
	}
	_ = tbl.Subscribe("wild", "a/*/c1")
	_ = tbl.Subscribe("any", "a/**")
	var sc Scratch
	n := 0
	visit := func(string, any) { n++ }
	match := func() { tbl.MatchEachUnique("a/b17/c3", &sc, visit) }
	match() // grow the scratch
	if allocs := testing.AllocsPerRun(100, match); allocs != 0 {
		b.Fatalf("MatchEachUnique allocates %.0f times per match", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match()
	}
	_ = n
}

// TestValidateMatchesSplitReference holds the in-place Validate to the
// split-based rule it replaced: same verdict and same error class on every
// input, and no allocation on the accept path (it runs once per publish).
func TestValidateMatchesSplitReference(t *testing.T) {
	reference := func(topic string) error {
		segs, err := checkSegments(topic)
		if err != nil {
			return err
		}
		for _, s := range segs {
			if s == WildcardOne || s == WildcardAny {
				return ErrWildcardInTopic
			}
		}
		return nil
	}
	class := func(err error) error {
		for _, c := range []error{ErrEmptyTopic, ErrTooDeep, ErrEmptySegment, ErrWildcardInTopic} {
			if errors.Is(err, c) {
				return c
			}
		}
		return err
	}
	alphabet := []string{"a", "bc", "*", "**", "/", "/", ""}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20000; trial++ {
		var sb strings.Builder
		for n := rng.Intn(70); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		topic := sb.String()
		if got, want := class(Validate(topic)), class(reference(topic)); got != want {
			t.Fatalf("Validate(%q) = %v, reference = %v", topic, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = Validate("Services/app0/Events/State") }); n != 0 {
		t.Fatalf("Validate allocates %.0f times on a valid topic", n)
	}
}
