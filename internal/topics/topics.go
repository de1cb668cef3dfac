// Package topics implements the publish/subscribe topic model: topics are
// '/'-separated strings ("these have sometimes also been referred to as
// subjects"); subscribers register interest in topics and the substrate
// routes events published on a topic to the subscribers that registered an
// interest in it.
//
// Subscription patterns extend plain topics with two wildcards:
//
//	"*"  matches exactly one segment       (Services/*/Advertisement)
//	"**" matches any suffix, terminal only (Services/**)
//
// Matching is served by a segment trie, so the cost is proportional to the
// topic depth rather than to the number of subscriptions. The trie is an
// immutable copy-on-write snapshot behind an atomic pointer (RCU-style):
// the match methods on the publish fast path never take a lock and never
// contend with subscription churn — see Table.
package topics

import (
	"errors"
	"fmt"
	"strings"
)

// Well-known topics used by the discovery scheme (paper §2.3).
const (
	// AdvertisementTopic is the public topic all BDNs subscribe to for
	// broker advertisements.
	AdvertisementTopic = "Services/BrokerDiscoveryNodes/BrokerAdvertisement"
	// DiscoveryTopic is the predefined topic on which brokers propagate
	// discovery requests, guaranteeing the request can reach every broker
	// connected in the network.
	DiscoveryTopic = "Services/BrokerDiscoveryNodes/DiscoveryRequest"
)

const (
	// Separator splits topic segments.
	Separator = "/"
	// WildcardOne matches exactly one segment in a pattern.
	WildcardOne = "*"
	// WildcardAny matches any suffix; only valid as the final segment.
	WildcardAny = "**"
	// MaxDepth bounds topic depth to keep tries shallow.
	MaxDepth = 32
)

// Validation errors.
var (
	ErrEmptyTopic      = errors.New("topics: empty topic")
	ErrEmptySegment    = errors.New("topics: empty segment")
	ErrTooDeep         = errors.New("topics: too many segments")
	ErrWildcardInTopic = errors.New("topics: wildcard not allowed in a concrete topic")
	ErrWildcardAnyPos  = errors.New("topics: ** must be the final segment")
)

// Split breaks a topic into segments without validation.
func Split(topic string) []string { return strings.Split(topic, Separator) }

// Validate checks a concrete (publishable) topic. It runs once per publish on
// the broker's ingress path, so it walks the segments in place instead of
// splitting them out: no allocation unless the topic is rejected.
func Validate(topic string) error {
	if topic == "" {
		return ErrEmptyTopic
	}
	if n := strings.Count(topic, Separator) + 1; n > MaxDepth {
		return fmt.Errorf("%w: %d segments", ErrTooDeep, n)
	}
	wildcard := false
	for start := 0; start <= len(topic); {
		var seg string
		seg, start = nextSegment(topic, start)
		if seg == "" {
			return fmt.Errorf("%w: %q", ErrEmptySegment, topic)
		}
		wildcard = wildcard || seg == WildcardOne || seg == WildcardAny
	}
	if wildcard {
		return fmt.Errorf("%w: %q", ErrWildcardInTopic, topic)
	}
	return nil
}

// ValidatePattern checks a subscription pattern.
func ValidatePattern(pattern string) error {
	segs, err := checkSegments(pattern)
	if err != nil {
		return err
	}
	for i, s := range segs {
		if s == WildcardAny && i != len(segs)-1 {
			return fmt.Errorf("%w: %q", ErrWildcardAnyPos, pattern)
		}
	}
	return nil
}

func checkSegments(topic string) ([]string, error) {
	if topic == "" {
		return nil, ErrEmptyTopic
	}
	segs := Split(topic)
	if len(segs) > MaxDepth {
		return nil, fmt.Errorf("%w: %d segments", ErrTooDeep, len(segs))
	}
	for _, s := range segs {
		if s == "" {
			return nil, fmt.Errorf("%w: %q", ErrEmptySegment, topic)
		}
	}
	return segs, nil
}

// Match reports whether a concrete topic matches a subscription pattern.
// Neither argument is validated; invalid input simply fails to match.
func Match(pattern, topic string) bool {
	ps, ts := Split(pattern), Split(topic)
	for i, p := range ps {
		if p == WildcardAny {
			// Terminal ** matches one or more remaining segments.
			return i == len(ps)-1 && i < len(ts)
		}
		if i >= len(ts) {
			return false
		}
		if p != WildcardOne && p != ts[i] {
			return false
		}
	}
	return len(ps) == len(ts)
}

// nextSegment cuts the segment of topic starting at byte offset start and
// returns it with the offset of the following segment. An offset past
// len(topic) means the topic is exhausted. Operating on offsets instead of
// strings.Split keeps the match path free of allocations.
func nextSegment(topic string, start int) (seg string, next int) {
	if i := strings.IndexByte(topic[start:], '/'); i >= 0 {
		return topic[start : start+i], start + i + 1
	}
	return topic[start:], len(topic) + 1
}
