package collect

import (
	"net/url"
	"sort"
	"strings"
	"time"

	"narada/internal/obs"
	"narada/internal/obs/plane"
)

// NodeEvent is one control-plane event as stored by the collector: the
// emitter's record plus provenance (which node it was scraped from) and the
// offset-corrected timestamp that places it on the fabric-wide timeline.
type NodeEvent struct {
	Node      string    `json:"node"`
	Seq       uint64    `json:"seq"`
	Type      string    `json:"type"`
	Subject   string    `json:"subject,omitempty"`
	Detail    string    `json:"detail,omitempty"`
	At        time.Time `json:"at"`        // as recorded (node-local clock)
	AtAligned time.Time `json:"atAligned"` // offset-corrected best-effort UTC
}

// eventLog is one node's journal-event ring with sequence-gap accounting.
type eventLog struct {
	ring    *obs.Ring[NodeEvent]
	lastSeq uint64
	gaps    *obs.Counter // narada_collector_event_gaps_total{node=...}
}

// ingestEventsLocked stores one document's events under its node, counting
// sequence gaps — events the node's journal overwrote before a scrape read
// them are visible as a counter, never silently absorbed. A sequence that
// goes backwards marks an emitter restart and re-baselines instead of
// counting a (huge) spurious gap. Requires c.mu.
func (c *Collector) ingestEventsLocked(doc *plane.Scrape) {
	if len(doc.Events) == 0 {
		return
	}
	l := c.events[doc.Node]
	if l == nil {
		l = &eventLog{
			ring: obs.NewRing[NodeEvent](c.cfg.eventCap),
			gaps: c.reg.Counter("narada_collector_event_gaps_total",
				"Journal sequence gaps observed per node (events overwritten before a scrape read them).",
				obs.L("node", doc.Node)),
		}
		c.events[doc.Node] = l
	}
	for _, ev := range doc.Events {
		if ev.Seq > l.lastSeq+1 && l.lastSeq != 0 {
			l.gaps.Add(ev.Seq - l.lastSeq - 1)
		}
		if ev.Seq == l.lastSeq {
			continue // duplicate
		}
		l.lastSeq = ev.Seq // a lower seq is an emitter restart: re-baseline
		l.ring.Push(NodeEvent{
			Node:      doc.Node,
			Seq:       ev.Seq,
			Type:      ev.Type,
			Subject:   ev.Subject,
			Detail:    ev.Detail,
			At:        ev.At,
			AtAligned: ev.At.Add(-doc.Offset),
		})
	}
}

// EventFilter selects events for the /events view. Zero fields match
// everything; Limit <= 0 is unlimited.
type EventFilter struct {
	Node  string
	Type  string
	Since time.Time
	Until time.Time
	Limit int
}

// EventsView is the /events payload: matching events in NTP-aligned merged
// order across all nodes, plus the total observed sequence-gap count so a
// reader knows when the record is incomplete.
type EventsView struct {
	Total  int         `json:"total"` // matches before Limit was applied
	Gaps   uint64      `json:"gaps"`  // sequence gaps across all nodes
	Events []NodeEvent `json:"events"`
}

// Events returns journal events matching the filter, merged across nodes and
// sorted by aligned time.
func (c *Collector) Events(f EventFilter) EventsView {
	c.mu.Lock()
	var out []NodeEvent
	var gaps uint64
	for node, l := range c.events {
		gaps += l.gaps.Value()
		if f.Node != "" && node != f.Node {
			continue
		}
		l.ring.Each(func(ev NodeEvent) {
			if f.Type != "" && ev.Type != f.Type {
				return
			}
			if !f.Since.IsZero() && ev.AtAligned.Before(f.Since) {
				return
			}
			if !f.Until.IsZero() && ev.AtAligned.After(f.Until) {
				return
			}
			out = append(out, ev)
		})
	}
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].AtAligned.Equal(out[j].AtAligned) {
			return out[i].AtAligned.Before(out[j].AtAligned)
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	view := EventsView{Total: len(out), Gaps: gaps, Events: out}
	if f.Limit > 0 && len(out) > f.Limit {
		view.Events = out[len(out)-f.Limit:] // keep the newest
	}
	if view.Events == nil {
		view.Events = []NodeEvent{}
	}
	return view
}

// eventsURL renders the /events query selecting the given aligned window.
func eventsURL(from, to time.Time, node string) string {
	q := url.Values{}
	q.Set("since", from.UTC().Format(time.RFC3339Nano))
	q.Set("until", to.UTC().Format(time.RFC3339Nano))
	if node != "" {
		q.Set("node", node)
	}
	return "/events?" + q.Encode()
}

// TopologyNode is one node of the reconstructed fabric graph.
type TopologyNode struct {
	Name  string    `json:"name"`
	Up    bool      `json:"up"`
	Since time.Time `json:"since"` // aligned time of the last lifecycle change
}

// TopologyLink is one directed link (as seen by its owning endpoint).
type TopologyLink struct {
	From  string    `json:"from"`
	To    string    `json:"to"`
	Role  string    `json:"role,omitempty"` // "link" (broker peer) or "bdn"
	Since time.Time `json:"since"`          // aligned time the link came up
}

// TopologyAd is one broker registration held at a BDN, with its TTL state at
// the reconstruction instant.
type TopologyAd struct {
	BDN         string     `json:"bdn"`
	Broker      string     `json:"broker"`
	RefreshedAt time.Time  `json:"refreshedAt"`
	ExpiresAt   *time.Time `json:"expiresAt,omitempty"`
	TTLState    string     `json:"ttlState"` // "live" | "expiring" | "no-ttl"
}

// TopologyView is the /topology payload: the fabric graph reconstructed by
// replaying the event journal up to At. Links and Ads list only what was
// live at that instant — a torn-down link is absent, which is exactly what
// time-travel queries around a fault look for.
type TopologyView struct {
	At     time.Time      `json:"at"`
	Live   bool           `json:"live"`
	Events int            `json:"eventsReplayed"`
	Nodes  []TopologyNode `json:"nodes"`
	Links  []TopologyLink `json:"links"`
	Ads    []TopologyAd   `json:"ads"`
}

// adTTL extracts the "ttl=<duration>" token advertisement events carry in
// their detail; 0 when absent or unparsable.
func adTTL(detail string) time.Duration {
	for _, tok := range strings.Fields(detail) {
		if v, ok := strings.CutPrefix(tok, "ttl="); ok {
			if d, err := time.ParseDuration(v); err == nil {
				return d
			}
		}
	}
	return 0
}

// TopologyAt replays every journal event with aligned time <= at, in the
// order Events merges them, into a fabric graph. Replay is stateless and
// idempotent: the same store and instant always reconstruct the same graph,
// and any instant within the retained window can be queried — the
// "time-travel" in the timeline. live marks the reconstruction instant as
// "now".
func (c *Collector) TopologyAt(at time.Time, live bool) TopologyView {
	events := c.Events(EventFilter{Until: at}).Events

	type linkKey struct{ from, to string }
	type adKey struct{ bdn, broker string }
	nodes := make(map[string]*TopologyNode)
	links := make(map[linkKey]*TopologyLink)
	ads := make(map[adKey]*TopologyAd)

	touch := func(ev NodeEvent) *TopologyNode {
		n := nodes[ev.Node]
		if n == nil {
			// First sight of a node without an observed node_start: it was
			// already running when the journal window opened.
			n = &TopologyNode{Name: ev.Node, Up: true, Since: ev.AtAligned}
			nodes[ev.Node] = n
		}
		return n
	}
	for _, ev := range events {
		n := touch(ev)
		switch ev.Type {
		case obs.EventNodeStart:
			n.Up, n.Since = true, ev.AtAligned
		case obs.EventNodeStop:
			n.Up, n.Since = false, ev.AtAligned
			for k := range links {
				if k.from == ev.Node {
					delete(links, k)
				}
			}
		case obs.EventLinkUp:
			role := strings.TrimPrefix(ev.Detail, "role=")
			links[linkKey{ev.Node, ev.Subject}] = &TopologyLink{
				From: ev.Node, To: ev.Subject, Role: role, Since: ev.AtAligned,
			}
		case obs.EventLinkDown:
			delete(links, linkKey{ev.Node, ev.Subject})
		case obs.EventAdRegistered, obs.EventAdRefreshed:
			// ad_refreshed is emitted both by BDNs (registration renewed,
			// subject = broker) and by brokers (advertisement sent, subject =
			// "bdn:<addr>" target). Only BDN-held state belongs on the graph.
			if strings.HasPrefix(ev.Subject, "bdn:") {
				continue
			}
			ad := ads[adKey{ev.Node, ev.Subject}]
			if ad == nil {
				ad = &TopologyAd{BDN: ev.Node, Broker: ev.Subject}
				ads[adKey{ev.Node, ev.Subject}] = ad
			}
			ad.RefreshedAt = ev.AtAligned
			if ttl := adTTL(ev.Detail); ttl > 0 {
				exp := ev.AtAligned.Add(ttl)
				ad.ExpiresAt = &exp
			} else {
				ad.ExpiresAt = nil
			}
		case obs.EventAdExpired:
			delete(ads, adKey{ev.Node, ev.Subject})
		}
	}

	view := TopologyView{At: at, Live: live, Events: len(events)}
	for _, n := range nodes {
		view.Nodes = append(view.Nodes, *n)
	}
	for _, l := range links {
		view.Links = append(view.Links, *l)
	}
	for _, ad := range ads {
		a := *ad
		switch {
		case a.ExpiresAt == nil:
			a.TTLState = "no-ttl"
		case a.ExpiresAt.Before(at):
			// Deadline lapsed but no sweep event yet: mirror the BDN's
			// read-path filtering, which treats the entry as gone.
			continue
		case a.ExpiresAt.Sub(at) < a.ExpiresAt.Sub(a.RefreshedAt)/3:
			a.TTLState = "expiring" // inside the last third of its window
		default:
			a.TTLState = "live"
		}
		view.Ads = append(view.Ads, a)
	}
	sort.Slice(view.Nodes, func(i, j int) bool { return view.Nodes[i].Name < view.Nodes[j].Name })
	sort.Slice(view.Links, func(i, j int) bool {
		if view.Links[i].From != view.Links[j].From {
			return view.Links[i].From < view.Links[j].From
		}
		return view.Links[i].To < view.Links[j].To
	})
	sort.Slice(view.Ads, func(i, j int) bool {
		if view.Ads[i].BDN != view.Ads[j].BDN {
			return view.Ads[i].BDN < view.Ads[j].BDN
		}
		return view.Ads[i].Broker < view.Ads[j].Broker
	})
	if view.Nodes == nil {
		view.Nodes = []TopologyNode{}
	}
	if view.Links == nil {
		view.Links = []TopologyLink{}
	}
	if view.Ads == nil {
		view.Ads = []TopologyAd{}
	}
	return view
}

// alertWindow is how far back from an alert's anchor the correlated event
// window reaches: wide enough to hold the reconnect burst and link teardown
// that explain a deadman, narrow enough to exclude unrelated history.
const alertWindow = 30 * time.Second

// maxWindowEvents caps the events embedded inline in an alert; the URL
// always selects the full window.
const maxWindowEvents = 20

// EventWindow links an alert (or trace) to the journal events surrounding
// it: the root-cause view — "deadman at T ⇐ 3 failed reconnect_attempt on
// link X in [T−30s, T]" — without a second query.
type EventWindow struct {
	From   time.Time   `json:"from"`
	To     time.Time   `json:"to"`
	URL    string      `json:"url"`
	Events []NodeEvent `json:"events"`
}

// eventWindowFor assembles the correlated event window for an alert on node:
// every event in [anchor−alertWindow, anchor] emitted by the node or naming
// it as subject (a vanished broker emits nothing — the evidence lives in its
// peers' link_down and reconnect_attempt events).
func (c *Collector) eventWindowFor(node string, anchor time.Time) *EventWindow {
	from := anchor.Add(-alertWindow)
	all := c.Events(EventFilter{Since: from, Until: anchor}).Events
	var related []NodeEvent
	for _, ev := range all {
		if ev.Node == node || ev.Subject == node ||
			(ev.Subject != "" && strings.Contains(ev.Subject, node)) {
			related = append(related, ev)
		}
	}
	if len(related) == 0 {
		return nil
	}
	if len(related) > maxWindowEvents {
		related = related[len(related)-maxWindowEvents:]
	}
	return &EventWindow{From: from, To: anchor, URL: eventsURL(from, anchor, ""), Events: related}
}

// EventCount returns the number of retained events across all nodes.
func (c *Collector) EventCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, l := range c.events {
		n += l.ring.Len()
	}
	return n
}
