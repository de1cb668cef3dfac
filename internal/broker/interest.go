package broker

import (
	"strings"
	"sync"

	"narada/internal/event"
)

// Subscription-interest propagation for RouteSubscriptions mode: brokers
// tell their neighbours which topic patterns their side of the network is
// interested in, and publishes are forwarded over a link only when the peer
// registered a matching interest — instead of flooding every event over
// every link.
//
// Interest bookkeeping is reference-counted per contribution source: the
// local client population is one source, and each link peer is another.
// A pattern is advertised to link L exactly while some source other than L
// holds a reference, which yields loop-free convergence on trees and (with
// the existing event dedup + TTL) correctness on cyclic topologies.

// linkSubscriberPrefix namespaces link identities inside the subscription
// table; the NUL byte cannot appear in client connection addresses.
const linkSubscriberPrefix = "\x00link:"

func linkSubscriberID(peer string) string { return linkSubscriberPrefix + peer }

func isLinkSubscriber(id string) (peer string, ok bool) {
	if strings.HasPrefix(id, linkSubscriberPrefix) {
		return id[len(linkSubscriberPrefix):], true
	}
	return "", false
}

// Control-event headers used for interest propagation.
const (
	controlOpHeader = "op"
	opSubAdd        = "sub-add"
	opSubDel        = "sub-del"
)

// interestState tracks pattern references per contribution source.
type interestState struct {
	mu     sync.Mutex
	local  map[string]int            // pattern -> local client registrations
	remote map[string]map[string]int // peer -> pattern -> references
}

func newInterestState() *interestState {
	return &interestState{
		local:  make(map[string]int),
		remote: make(map[string]map[string]int),
	}
}

// contributionsExcluding counts references to pattern from every source
// except the named peer ("" excludes nothing). Caller holds mu.
func (s *interestState) contributionsExcluding(pattern, peer string) int {
	n := s.local[pattern]
	for p, pats := range s.remote {
		if p == peer {
			continue
		}
		n += pats[pattern]
	}
	return n
}

// patternsExcluding returns the patterns visible to a new peer. Caller holds mu.
func (s *interestState) patternsExcluding(peer string) []string {
	seen := make(map[string]struct{})
	for pattern, n := range s.local {
		if n > 0 {
			seen[pattern] = struct{}{}
		}
	}
	for p, pats := range s.remote {
		if p == peer {
			continue
		}
		for pattern, n := range pats {
			if n > 0 {
				seen[pattern] = struct{}{}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for pattern := range seen {
		out = append(out, pattern)
	}
	return out
}

// interestUpdate adjusts one source's reference count for a pattern by
// delta (±1) and returns the links that must be told (those whose
// excluded-view crossed 0). source is "" for the local client population.
func (b *Broker) interestUpdate(pattern, source string, delta int) (notify []*link, op string) {
	s := b.interest
	s.mu.Lock()
	defer s.mu.Unlock()

	peers := b.linksExcept(source) // snapshot of candidate links
	before := make(map[string]int, len(peers))
	for _, lk := range peers {
		before[lk.peer] = s.contributionsExcluding(pattern, lk.peer)
	}

	if source == "" {
		s.local[pattern] += delta
		if s.local[pattern] <= 0 {
			delete(s.local, pattern)
		}
	} else {
		pats, ok := s.remote[source]
		if !ok {
			pats = make(map[string]int)
			s.remote[source] = pats
		}
		pats[pattern] += delta
		if pats[pattern] <= 0 {
			delete(pats, pattern)
			if len(pats) == 0 {
				delete(s.remote, source)
			}
		}
	}

	for _, lk := range peers {
		after := s.contributionsExcluding(pattern, lk.peer)
		switch {
		case before[lk.peer] == 0 && after > 0:
			notify = append(notify, lk)
			op = opSubAdd
		case before[lk.peer] > 0 && after == 0:
			notify = append(notify, lk)
			op = opSubDel
		}
	}
	return notify, op
}

// sendInterest transmits one interest-control event over a link. Interest
// updates are correctness-critical, so they use the non-droppable control
// discipline of the egress queue.
func (b *Broker) sendInterest(lk *link, op, pattern string) {
	ev := event.New(event.TypeControl, pattern, nil)
	ev.Source = b.cfg.LogicalAddress
	ev.SetHeader(controlOpHeader, op)
	_ = lk.out.sendControl(b.frames.encode(ev, 1))
}

// localInterestChanged is called when a client subscription is added or
// removed (delta ±1); it updates the counts and notifies affected links.
func (b *Broker) localInterestChanged(pattern string, delta int) {
	if b.cfg.Routing != RouteSubscriptions {
		return
	}
	notify, op := b.interestUpdate(pattern, "", delta)
	for _, lk := range notify {
		b.sendInterest(lk, op, pattern)
	}
}

// handleInterestControl processes a sub-add/sub-del from a link peer.
func (b *Broker) handleInterestControl(lk *link, ev *event.Event) {
	if b.cfg.Routing != RouteSubscriptions {
		return
	}
	pattern := ev.Topic
	switch ev.Header(controlOpHeader) {
	case opSubAdd:
		_ = b.subs.Subscribe(linkSubscriberID(lk.peer), pattern)
		notify, op := b.interestUpdate(pattern, lk.peer, +1)
		for _, other := range notify {
			b.sendInterest(other, op, pattern)
		}
	case opSubDel:
		b.subs.Unsubscribe(linkSubscriberID(lk.peer), pattern)
		notify, op := b.interestUpdate(pattern, lk.peer, -1)
		for _, other := range notify {
			b.sendInterest(other, op, pattern)
		}
	}
}

// announceInterestTo sends the full current interest snapshot to a freshly
// established link, so the new peer learns what this side wants.
func (b *Broker) announceInterestTo(lk *link) {
	if b.cfg.Routing != RouteSubscriptions {
		return
	}
	b.interest.mu.Lock()
	patterns := b.interest.patternsExcluding(lk.peer)
	b.interest.mu.Unlock()
	for _, pattern := range patterns {
		b.sendInterest(lk, opSubAdd, pattern)
	}
}

// dropLinkInterest removes every reference held by a departed peer and
// propagates the resulting deletions.
func (b *Broker) dropLinkInterest(peer string) {
	if b.cfg.Routing != RouteSubscriptions {
		return
	}
	b.subs.UnsubscribeAll(linkSubscriberID(peer))
	b.interest.mu.Lock()
	pats := b.interest.remote[peer]
	patterns := make([]string, 0, len(pats))
	for pattern, n := range pats {
		for i := 0; i < n; i++ {
			patterns = append(patterns, pattern)
		}
	}
	b.interest.mu.Unlock()
	for _, pattern := range patterns {
		notify, op := b.interestUpdate(pattern, peer, -1)
		for _, other := range notify {
			b.sendInterest(other, op, pattern)
		}
	}
}
