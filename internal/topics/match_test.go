package topics

import "sort"

// Match returns the sorted, de-duplicated subscriber ids whose patterns
// match the concrete topic (nil when none do): MatchEachUnique with a fresh
// Scratch, collected, for tests that compare match sets.
func (t *Table) Match(topic string) []string {
	var ids []string
	t.MatchEachUnique(topic, new(Scratch), func(id string, _ any) { ids = append(ids, id) })
	sort.Strings(ids)
	return ids
}

// Len returns the total number of (subscriber, pattern) registrations.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, pats := range t.byID {
		n += len(pats)
	}
	return n
}

// Subscribers returns the number of distinct subscriber ids.
func (t *Table) Subscribers() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}
