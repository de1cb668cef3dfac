package testbed

import (
	"fmt"
	"testing"
	"time"

	"narada/internal/obs"
	"narada/internal/obs/collect"
	"narada/internal/simnet"
)

// TestChaosEventTimeline runs a supervised fabric against a live collector,
// kills a broker, and checks the control-plane record end to end: the
// survivors' link_down and reconnect_attempt events land on the collector's
// timeline beside the testbed's fault_injected marker, and /topology
// time-travel shows the link present just before the kill and absent after.
func TestChaosEventTimeline(t *testing.T) {
	col := fastCollector(t, collect.Config{})
	opts := chaosOptions()
	// At Scale 20 a 200 ms heartbeat is 10 ms of wall: a loaded host's stall
	// does not miss three and tear a link down while New links the chain.
	opts.Scale = 20
	opts.Watch = col.Watch
	tb, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer tb.Close()
	// Scrapes plus the race detector slow the fabric well below its usual
	// pace; give convergence the same budget as the post-fault waits.
	if err := tb.WaitConverged(ConvergeOptions{Timeout: 30 * time.Second}); err != nil {
		t.Fatalf("initial state: %v", err)
	}

	// The linear chain dials into broker-umn; that edge is the one whose
	// teardown the survivor will journal. Established links are journalled
	// under the peer's logical name; the supervisor redials its stream addr.
	var dialer, target string
	for _, e := range tb.Edges {
		if e.To == "broker-umn" {
			dialer, target = e.From, e.To
			break
		}
	}
	if dialer == "" {
		t.Fatalf("no edge into broker-umn in %v", tb.Edges)
	}
	targetAddr := tb.BrokerByName(target).StreamAddr()

	hasLink := func(v collect.TopologyView) bool {
		for _, l := range v.Links {
			if l.From == dialer && l.To == target {
				return true
			}
		}
		return false
	}

	// Wait for the link_up event to reach the collector before the kill, so
	// the timeline holds the link's establishment.
	deadline := time.Now().Add(10 * time.Second)
	for !hasLink(col.TopologyAt(tb.Net.Clock().Now(), true)) {
		if time.Now().After(deadline) {
			t.Fatalf("collector never saw link %s -> %s; %d events retained",
				dialer, target, col.EventCount())
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := tb.RunSchedule([]Fault{at(0, KillBrokerFault(target))}); err != nil {
		t.Fatalf("schedule: %v", err)
	}

	// The kill's evidence arrives from three independent journals: the
	// testbed's fault_injected, the survivor's link_down naming the dead
	// peer, and its supervisor's reconnect_attempt failures.
	wantEvent := func(f collect.EventFilter, subject, desc string) collect.NodeEvent {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			for _, ev := range col.Events(f).Events {
				if subject == "" || ev.Subject == subject {
					return ev
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("no %s event arrived; %d events retained", desc, col.EventCount())
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	fault := wantEvent(collect.EventFilter{Node: "testbed", Type: obs.EventFaultInjected}, "", "fault_injected")
	if fault.Subject == "" {
		t.Errorf("fault_injected carries no fault name: %+v", fault)
	}
	wantEvent(collect.EventFilter{Node: dialer, Type: obs.EventLinkDown}, target,
		"link_down naming the dead peer")
	wantEvent(collect.EventFilter{Type: obs.EventReconnectAttempt}, targetAddr,
		"reconnect_attempt against the dead peer")

	// Time travel: the same store answers differently for instants either
	// side of the teardown. The peer is dead, so the journal's final word on
	// this edge is a link_down; probe just before it (after the last
	// preceding link_up) and at it — instants taken from the journal's own
	// aligned stamps, immune to skew residual and model-clock races.
	var lastDown, lastUp, curUp time.Time
	for _, ev := range col.Events(collect.EventFilter{Node: dialer}).Events {
		if ev.Subject != target {
			continue
		}
		switch ev.Type {
		case obs.EventLinkUp:
			curUp = ev.AtAligned
		case obs.EventLinkDown:
			lastUp, lastDown = curUp, ev.AtAligned
		}
	}
	if lastDown.IsZero() || lastUp.IsZero() || !lastUp.Before(lastDown) {
		t.Fatalf("no link_up < link_down pair for %s -> %s (up=%v down=%v)",
			dialer, target, lastUp, lastDown)
	}
	preKill := lastUp.Add(lastDown.Sub(lastUp) / 2)
	if v := col.TopologyAt(preKill, false); !hasLink(v) {
		t.Errorf("topology at pre-kill %v lost the link: %+v", preKill, v.Links)
	}
	if v := col.TopologyAt(lastDown, false); hasLink(v) {
		t.Errorf("topology at teardown %v still shows the link: %+v", lastDown, v.Links)
	}
}

// TestKillLosesAtMostOneInterval emits a burst of journal events on a broker
// inside its last scrape interval and kills it at once. A scraped node's
// Close waits for one more scrape, so the collector must hold every event
// the broker emitted, node_stop last, with no sequence gap: a kill loses at
// most one interval of events, and here none.
func TestKillLosesAtMostOneInterval(t *testing.T) {
	col := fastCollector(t, collect.Config{})
	tb, err := New(Options{
		Scale: 50, Seed: 42, NoBDN: true,
		Brokers: []BrokerSpec{{Site: simnet.SiteIndianapolis, Name: "broker-k"}},
		Watch:   col.Watch,
	})
	if err != nil {
		t.Fatalf("testbed: %v", err)
	}
	defer tb.Close()
	journal := tb.brokerDeps["broker-k"].cfg.Journal
	deadline := time.Now().Add(10 * time.Second)
	for col.EventCount() == 0 { // the first scrape carried node_start
		if time.Now().After(deadline) {
			t.Fatal("broker-k never scraped")
		}
		time.Sleep(5 * time.Millisecond)
	}

	for i := 0; i < 100; i++ {
		journal.Emit(obs.EventReconnectAttempt, "burst-peer", fmt.Sprintf("attempt=%d", i))
	}
	if !tb.KillBroker("broker-k") {
		t.Fatal("KillBroker(broker-k) found no broker")
	}
	last := journal.Seq()
	for {
		v := col.Events(collect.EventFilter{Node: "broker-k"})
		if n := len(v.Events); n > 0 && v.Events[n-1].Seq == last {
			if uint64(n) != last || v.Gaps != 0 || v.Events[n-1].Type != obs.EventNodeStop {
				t.Fatalf("collector holds %d of %d events (gaps %d), last %s", n, last, v.Gaps, v.Events[n-1].Type)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("collector never received broker-k's event %d: %+v", last, v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
