package collect

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"narada/internal/obs"
	"narada/internal/obs/plane"
)

func flowsDoc(node string, at time.Time, flows []obs.FlowSnapshot) *plane.Scrape {
	for i := range flows {
		// Mirror FlowTable.Snapshot: the per-reason fields derive from Drops.
		s := &flows[i]
		s.DropQueue = s.Drops[obs.DropQueueFull]
		s.DropConn = s.Drops[obs.DropConnDown]
		s.DropLarge = s.Drops[obs.DropFrameTooLarge]
		s.DropMsgs = s.DropQueue + s.DropConn + s.DropLarge
	}
	return &plane.Scrape{Node: node, At: at, Flows: flows}
}

// TestFlowsViewMergesNodes feeds two brokers' flow snapshots and checks the
// assembled view: per-node tables verbatim, the fabric merge summing shared
// topics, ordering by published count with <other> pinned last.
func TestFlowsViewMergesNodes(t *testing.T) {
	c := newTestCollector(t, Config{})
	at := time.Date(2026, 8, 7, 9, 0, 0, 0, time.UTC)

	c.ingest(flowsDoc("broker-a", at, []obs.FlowSnapshot{
		{Topic: "sensors/temp", PubMsgs: 500, PubBytes: 50_000, DelMsgs: 490, DelBytes: 49_000,
			Drops: [obs.NumDropReasons]uint64{10, 0, 0}},
		{Topic: "logs/app", PubMsgs: 100, DelMsgs: 100},
	}), "")
	c.ingest(flowsDoc("broker-b", at.Add(time.Second), []obs.FlowSnapshot{
		{Topic: "sensors/temp", PubMsgs: 300, PubBytes: 30_000, DelMsgs: 300, DelBytes: 30_000, ErrBound: 7},
		{Topic: obs.FlowOther, DelMsgs: 5, Drops: [obs.NumDropReasons]uint64{0, 2, 0}},
	}), "")

	view := c.Flows()
	if len(view.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2: %+v", len(view.Nodes), view.Nodes)
	}
	if view.Nodes[0].Node != "broker-a" || view.Nodes[1].Node != "broker-b" {
		t.Fatalf("node order = %s, %s", view.Nodes[0].Node, view.Nodes[1].Node)
	}
	if !view.Nodes[1].At.Equal(at.Add(time.Second)) {
		t.Fatalf("broker-b At = %v", view.Nodes[1].At)
	}
	if len(view.Nodes[0].Flows) != 2 || view.Nodes[0].Flows[0].PubMsgs != 500 {
		t.Fatalf("broker-a table mangled: %+v", view.Nodes[0].Flows)
	}

	// Fabric merge: temp = 800 across both brokers, logs = 100, <other> last.
	if len(view.Fabric) != 3 {
		t.Fatalf("fabric rows = %d, want 3: %+v", len(view.Fabric), view.Fabric)
	}
	temp := view.Fabric[0]
	if temp.Topic != "sensors/temp" || temp.PubMsgs != 800 || temp.DelMsgs != 790 ||
		temp.DropQueue != 10 || temp.ErrBound != 7 {
		t.Fatalf("merged temp = %+v", temp)
	}
	if view.Fabric[1].Topic != "logs/app" {
		t.Fatalf("fabric order: %+v", view.Fabric)
	}
	if last := view.Fabric[2]; last.Topic != obs.FlowOther || last.DropConn != 2 {
		t.Fatalf("<other> not folded last: %+v", last)
	}
}

// TestFlowsSnapshotReplacesNotAccumulates: each scrape carries a full
// snapshot of the node's table, so a later one replaces the earlier one
// rather than double counting.
func TestFlowsSnapshotReplacesNotAccumulates(t *testing.T) {
	c := newTestCollector(t, Config{})
	at := time.Date(2026, 8, 7, 9, 0, 0, 0, time.UTC)
	c.ingest(flowsDoc("b1", at, []obs.FlowSnapshot{{Topic: "a", PubMsgs: 10}}), "")
	c.ingest(flowsDoc("b1", at.Add(time.Second), []obs.FlowSnapshot{{Topic: "a", PubMsgs: 25}}), "")
	view := c.Flows()
	if len(view.Fabric) != 1 || view.Fabric[0].PubMsgs != 25 {
		t.Fatalf("fabric = %+v, want the latest snapshot only", view.Fabric)
	}
}

// TestFlowsHTTPEndpoint round-trips the view through the /flows handler.
func TestFlowsHTTPEndpoint(t *testing.T) {
	c := newTestCollector(t, Config{})
	c.ingest(flowsDoc("b1", time.Now(), []obs.FlowSnapshot{
		{Topic: "sensors/temp", PubMsgs: 42, DelMsgs: 40, Drops: [obs.NumDropReasons]uint64{2, 0, 0}},
	}), "")
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/flows")
	if err != nil {
		t.Fatalf("GET /flows: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("/flows status %d: %s", resp.StatusCode, body)
	}
	var view FlowsView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("/flows is not JSON: %v\n%s", err, body)
	}
	if len(view.Fabric) != 1 || view.Fabric[0].Topic != "sensors/temp" ||
		view.Fabric[0].PubMsgs != 42 || view.Fabric[0].DropQueue != 2 {
		t.Fatalf("/flows payload = %s", body)
	}
}
