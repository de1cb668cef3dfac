package collect

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"narada/internal/obs"
	"narada/internal/obs/plane"
)

func eventDoc(node string, offset time.Duration, events ...obs.Event) *plane.Scrape {
	return &plane.Scrape{Node: node, Offset: offset, At: time.Now(), Events: events}
}

func ev(seq uint64, typ string, at time.Time, subject, detail string) obs.Event {
	return obs.Event{Seq: seq, Type: typ, At: at, Subject: subject, Detail: detail}
}

// TestEventsMergedAlignedOrder ingests journals from two nodes with opposite
// clock skews and asserts /events merges them into offset-corrected order,
// with the filters selecting by node, type and window.
func TestEventsMergedAlignedOrder(t *testing.T) {
	c := newTestCollector(t, Config{})
	base := time.Date(2005, 7, 1, 12, 0, 0, 0, time.UTC)

	// True order: a's link_up (t+0), b's link_up (t+1s), a's link_down (t+2s).
	// a runs 400ms fast and b 300ms slow, so raw stamps misorder the first two.
	c.ingest(eventDoc("broker-a", 400*time.Millisecond,
		ev(1, obs.EventLinkUp, base.Add(400*time.Millisecond), "broker-b", "role=link"),
		ev(2, obs.EventLinkDown, base.Add(2*time.Second+400*time.Millisecond), "broker-b", "read error")), "")
	c.ingest(eventDoc("broker-b", -300*time.Millisecond,
		ev(1, obs.EventLinkUp, base.Add(time.Second-300*time.Millisecond), "broker-a", "role=link")), "")

	v := c.Events(EventFilter{})
	if v.Total != 3 || len(v.Events) != 3 {
		t.Fatalf("events = %+v, want 3", v)
	}
	for i, want := range []struct {
		node string
		typ  string
		at   time.Time
	}{
		{"broker-a", obs.EventLinkUp, base},
		{"broker-b", obs.EventLinkUp, base.Add(time.Second)},
		{"broker-a", obs.EventLinkDown, base.Add(2 * time.Second)},
	} {
		got := v.Events[i]
		if got.Node != want.node || got.Type != want.typ || !got.AtAligned.Equal(want.at) {
			t.Fatalf("event %d = %+v, want %s %s at %v", i, got, want.node, want.typ, want.at)
		}
	}

	if v := c.Events(EventFilter{Node: "broker-b"}); v.Total != 1 || v.Events[0].Node != "broker-b" {
		t.Fatalf("node filter = %+v", v)
	}
	if v := c.Events(EventFilter{Type: obs.EventLinkDown}); v.Total != 1 || v.Events[0].Type != obs.EventLinkDown {
		t.Fatalf("type filter = %+v", v)
	}
	if v := c.Events(EventFilter{Since: base.Add(500 * time.Millisecond)}); v.Total != 2 {
		t.Fatalf("since filter kept %d, want 2", v.Total)
	}
	if v := c.Events(EventFilter{Until: base.Add(500 * time.Millisecond)}); v.Total != 1 {
		t.Fatalf("until filter kept %d, want 1", v.Total)
	}
	// Limit keeps the newest while Total still reports the full match.
	if v := c.Events(EventFilter{Limit: 1}); v.Total != 3 || len(v.Events) != 1 ||
		v.Events[0].Type != obs.EventLinkDown {
		t.Fatalf("limit = %+v, want newest only with total 3", v)
	}
}

// TestEventSeqGapDetection checks the collector counts journal sequence gaps
// (events the emitter's ring overwrote before a scrape), skips duplicates,
// and re-baselines on an emitter restart instead of counting a huge
// spurious gap.
func TestEventSeqGapDetection(t *testing.T) {
	c := newTestCollector(t, Config{})
	at := time.Unix(3000, 0)

	c.ingest(eventDoc("broker-1", 0, ev(1, obs.EventNodeStart, at, "addr", "")), "")
	if g := c.Events(EventFilter{}).Gaps; g != 0 {
		t.Fatalf("gaps = %d after contiguous ingest, want 0", g)
	}
	// Seqs 2..4 lost: a gap of 3.
	c.ingest(eventDoc("broker-1", 0, ev(5, obs.EventLinkUp, at.Add(time.Second), "peer", "")), "")
	if g := c.Events(EventFilter{}).Gaps; g != 3 {
		t.Fatalf("gaps = %d after losing seqs 2-4, want 3", g)
	}
	// Duplicate delivery: neither stored nor counted.
	c.ingest(eventDoc("broker-1", 0, ev(5, obs.EventLinkUp, at.Add(time.Second), "peer", "")), "")
	if g, n := c.Events(EventFilter{}).Gaps, c.EventCount(); g != 3 || n != 2 {
		t.Fatalf("after dup: gaps=%d count=%d, want 3/2", g, n)
	}
	// Emitter restart (seq resets to 1): re-baseline, no spurious gap.
	c.ingest(eventDoc("broker-1", 0, ev(1, obs.EventNodeStart, at.Add(2*time.Second), "addr", "")), "")
	c.ingest(eventDoc("broker-1", 0, ev(2, obs.EventLinkUp, at.Add(3*time.Second), "peer", "")), "")
	if g := c.Events(EventFilter{}).Gaps; g != 3 {
		t.Fatalf("gaps = %d after restart re-baseline, want still 3", g)
	}
}

// TestTopologyTimeTravel replays a small fabric history and asserts the
// reconstructed graph differs across query instants: the link exists between
// its link_up and link_down, the dead node's outgoing links vanish with its
// node_stop, and ad TTL states degrade from live to expiring to gone.
func TestTopologyTimeTravel(t *testing.T) {
	c := newTestCollector(t, Config{})
	base := time.Date(2005, 7, 1, 12, 0, 0, 0, time.UTC)

	c.ingest(eventDoc("broker-a", 0,
		ev(1, obs.EventNodeStart, base, "127.0.0.1:7001", ""),
		ev(2, obs.EventLinkUp, base.Add(time.Second), "broker-b", "role=link"),
		// Broker-side advertisement send: subject is the BDN target, must
		// not appear as a registration on the graph.
		ev(3, obs.EventAdRefreshed, base.Add(time.Second), "bdn:127.0.0.1:9001", "")), "")
	c.ingest(eventDoc("gsl", 0,
		ev(1, obs.EventAdRegistered, base.Add(2*time.Second), "broker-a", "realm=r1 ttl=30s")), "")
	c.ingest(eventDoc("broker-b", 0,
		ev(1, obs.EventNodeStart, base, "127.0.0.1:7002", ""),
		ev(2, obs.EventLinkUp, base.Add(time.Second), "broker-a", "role=link"),
		ev(3, obs.EventNodeStop, base.Add(10*time.Second), "broker-b", "")), "")
	c.ingest(eventDoc("broker-a", 0,
		ev(4, obs.EventLinkDown, base.Add(11*time.Second), "broker-b", "read error")), "")

	link := func(v TopologyView, from, to string) bool {
		for _, l := range v.Links {
			if l.From == from && l.To == to {
				return true
			}
		}
		return false
	}

	// T+5s: both brokers up, both link directions live, ad live.
	v := c.TopologyAt(base.Add(5*time.Second), false)
	if len(v.Nodes) != 3 {
		t.Fatalf("nodes at T+5s = %+v, want broker-a broker-b gsl", v.Nodes)
	}
	if !link(v, "broker-a", "broker-b") || !link(v, "broker-b", "broker-a") {
		t.Fatalf("links at T+5s = %+v, want both directions", v.Links)
	}
	if len(v.Ads) != 1 || v.Ads[0].Broker != "broker-a" || v.Ads[0].BDN != "gsl" ||
		v.Ads[0].TTLState != "live" {
		t.Fatalf("ads at T+5s = %+v, want live broker-a@gsl", v.Ads)
	}

	// T+1s−ε: before any link_up.
	if v := c.TopologyAt(base.Add(999*time.Millisecond), false); len(v.Links) != 0 {
		t.Fatalf("links at T+0.999s = %+v, want none", v.Links)
	}

	// T+10.5s: broker-b stopped (its outgoing link gone with it) but
	// broker-a's side hasn't noticed yet.
	v = c.TopologyAt(base.Add(10500*time.Millisecond), false)
	for _, n := range v.Nodes {
		if n.Name == "broker-b" && n.Up {
			t.Fatalf("broker-b still up at T+10.5s: %+v", v.Nodes)
		}
	}
	if link(v, "broker-b", "broker-a") || !link(v, "broker-a", "broker-b") {
		t.Fatalf("links at T+10.5s = %+v, want only a→b", v.Links)
	}

	// T+12s: broker-a's link_down replayed too.
	if v := c.TopologyAt(base.Add(12*time.Second), false); len(v.Links) != 0 {
		t.Fatalf("links at T+12s = %+v, want none", v.Links)
	}

	// The 30s ad registered at T+2s: expiring inside its last third, gone
	// once the deadline lapses without a refresh.
	if v := c.TopologyAt(base.Add(25*time.Second), false); len(v.Ads) != 1 || v.Ads[0].TTLState != "expiring" {
		t.Fatalf("ads at T+25s = %+v, want expiring", v.Ads)
	}
	if v := c.TopologyAt(base.Add(40*time.Second), false); len(v.Ads) != 0 {
		t.Fatalf("ads at T+40s = %+v, want lapsed entry omitted", v.Ads)
	}
}

// TestAlertEventWindowCorrelation drives a deadman through ingest silence and
// asserts (a) the alert lifecycle lands in the collector's own journal as
// events, and (b) /alerts embeds the correlated event window holding the
// peers' evidence about the vanished node.
func TestAlertEventWindowCorrelation(t *testing.T) {
	c, _ := healthTestCollector(t)

	c.ingest(metricsDoc("broker-1", 0), "")
	// The surviving peer's journal names the dead node.
	c.ingest(eventDoc("broker-2", 0,
		ev(1, obs.EventLinkDown, time.Now(), "broker-1", "read error"),
		ev(2, obs.EventReconnectAttempt, time.Now(), "broker-1", "fail: connection refused")), "")
	time.Sleep(60 * time.Millisecond)
	c.evaluate()
	// Both nodes went silent (the event document registered broker-2 too), so
	// both deadman — the test follows broker-1's alert.
	if c.Health().Firing() == 0 {
		t.Fatalf("setup: deadman not firing: %+v", c.Health().Alerts())
	}

	// The firing transitions were journalled under the collector's identity.
	fired := c.Events(EventFilter{Node: "obscollect", Type: obs.EventAlertFiring})
	subjects := map[string]bool{}
	for _, f := range fired.Events {
		subjects[f.Subject] = true
	}
	if !subjects["broker-1"] {
		t.Fatalf("alert_firing events = %+v, want one for broker-1", fired)
	}

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/alerts")
	if err != nil {
		t.Fatalf("GET /alerts: %v", err)
	}
	defer resp.Body.Close()
	var v AlertsView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode /alerts: %v", err)
	}
	var target *AlertView
	for i := range v.Alerts {
		if v.Alerts[i].Node == "broker-1" {
			target = &v.Alerts[i]
			break
		}
	}
	if target == nil {
		t.Fatalf("/alerts = %+v, want a broker-1 deadman", v)
	}
	w := target.EventWindow
	if w == nil || w.URL == "" {
		t.Fatalf("alert carries no event window: %+v", target)
	}
	types := map[string]bool{}
	for _, ev := range w.Events {
		types[ev.Type] = true
	}
	if !types[obs.EventLinkDown] || !types[obs.EventReconnectAttempt] {
		t.Fatalf("window events = %+v, want peer link_down + reconnect_attempt", w.Events)
	}
}

// TestEventsAndTopologyEndpoints exercises the HTTP plane: filter parameters,
// bad-parameter rejection and the live/at switch.
func TestEventsAndTopologyEndpoints(t *testing.T) {
	c := newTestCollector(t, Config{})
	now := time.Now()
	c.ingest(eventDoc("broker-1", 0,
		ev(1, obs.EventNodeStart, now.Add(-time.Minute), "addr", ""),
		ev(2, obs.EventLinkUp, now.Add(-30*time.Second), "broker-2", "role=link")), "")

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	get := func(path string, into any) int {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if into != nil && resp.StatusCode == 200 {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("decode %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	var evs EventsView
	if code := get("/events?type=link_up", &evs); code != 200 || evs.Total != 1 ||
		evs.Events[0].Type != "link_up" {
		t.Fatalf("/events?type=link_up: code=%d view=%+v", code, evs)
	}
	if code := get("/events?since=45s", &evs); code != 200 || evs.Total != 1 {
		t.Fatalf("/events?since=45s: code=%d total=%d, want 1", code, evs.Total)
	}
	if code := get("/events?since=bogus", nil); code != 400 {
		t.Fatalf("/events?since=bogus: code=%d, want 400", code)
	}
	if code := get("/events?limit=x", nil); code != 400 {
		t.Fatalf("/events?limit=x: code=%d, want 400", code)
	}

	var topo TopologyView
	if code := get("/topology", &topo); code != 200 || !topo.Live || len(topo.Links) != 1 {
		t.Fatalf("/topology: code=%d view=%+v, want live with one link", code, topo)
	}
	// 45s ago predates the link_up: the link must be absent from the replay.
	if code := get("/topology?at=45s", &topo); code != 200 || topo.Live || len(topo.Links) != 0 {
		t.Fatalf("/topology?at=45s: code=%d view=%+v, want non-live without links", code, topo)
	}
	if code := get("/topology?at=bogus", nil); code != 400 {
		t.Fatalf("/topology?at=bogus: code=%d, want 400", code)
	}
}

// TestTopologyReplaysEventsOrder pins /topology to /events: TopologyAt(at)
// is a replay of exactly the events Events(Until: at) returns, in that
// order. Three nodes with opposite clock skews record events at one aligned
// instant, and broker-a's link_up/link_down pair arrives seq-reversed, so a
// replay in any order but (aligned time, node, seq) ends with a different
// link set.
func TestTopologyReplaysEventsOrder(t *testing.T) {
	c := newTestCollector(t, Config{manual: true})
	base := time.Date(2005, 7, 1, 12, 0, 0, 0, time.UTC)
	tie := base.Add(5 * time.Second)

	c.ingest(eventDoc("broker-a", 400*time.Millisecond,
		ev(1, obs.EventLinkUp, base.Add(400*time.Millisecond), "broker-c", "role=link"),
		ev(3, obs.EventLinkDown, tie.Add(400*time.Millisecond), "broker-b", "read error"),
		ev(2, obs.EventLinkUp, tie.Add(400*time.Millisecond), "broker-b", "role=link")), "")
	c.ingest(eventDoc("broker-b", -300*time.Millisecond,
		ev(1, obs.EventLinkUp, base.Add(time.Second-300*time.Millisecond), "broker-a", "role=link"),
		ev(2, obs.EventLinkDown, tie.Add(-300*time.Millisecond), "broker-a", "read error")), "")
	c.ingest(eventDoc("broker-c", 0,
		ev(1, obs.EventLinkUp, tie, "broker-a", "role=link"),
		ev(2, obs.EventNodeStop, base.Add(9*time.Second), "broker-c", "")), "")

	replay := func(events []NodeEvent) map[[2]string]bool {
		links := make(map[[2]string]bool)
		for _, e := range events {
			switch e.Type {
			case obs.EventLinkUp:
				links[[2]string{e.Node, e.Subject}] = true
			case obs.EventLinkDown:
				delete(links, [2]string{e.Node, e.Subject})
			case obs.EventNodeStop:
				for k := range links {
					if k[0] == e.Node {
						delete(links, k)
					}
				}
			}
		}
		return links
	}
	for _, tc := range []struct {
		name   string
		at     time.Time
		events int
		links  int
	}{
		{"before", base.Add(-time.Second), 0, 0},
		{"between", base.Add(2 * time.Second), 2, 2}, // a→c, b→a
		{"at the tie", tie, 6, 2},                    // a→c, c→a; a→b went up then down, b→a down
		{"after", base.Add(10 * time.Second), 7, 1},  // c stopped: a→c only
	} {
		events := c.Events(EventFilter{Until: tc.at}).Events
		v := c.TopologyAt(tc.at, false)
		if len(events) != tc.events || v.Events != len(events) {
			t.Fatalf("%s: %d events, eventsReplayed %d, want %d for both", tc.name, len(events), v.Events, tc.events)
		}
		want := replay(events)
		if len(want) != tc.links || len(v.Links) != len(want) {
			t.Fatalf("%s: topology has %d links, replay of /events %d, want %d: %+v", tc.name, len(v.Links), len(want), tc.links, v.Links)
		}
		for _, l := range v.Links {
			if !want[[2]string{l.From, l.To}] {
				t.Fatalf("%s: topology link %s→%s is not in the replay of /events", tc.name, l.From, l.To)
			}
		}
	}
	// The merged order itself: at the tie, node then seq.
	var got []string
	for _, e := range c.Events(EventFilter{Since: tie, Until: tie}).Events {
		got = append(got, fmt.Sprintf("%s/%d", e.Node, e.Seq))
	}
	if want := "broker-a/2 broker-a/3 broker-b/2 broker-c/1"; strings.Join(got, " ") != want {
		t.Fatalf("order at the tie = %v, want %s", got, want)
	}
}
