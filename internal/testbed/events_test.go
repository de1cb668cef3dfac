//go:build goexperiment.synctest

package testbed

import (
	"fmt"
	"testing"
	"testing/synctest"
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
	exact(t, func(t *testing.T) {
		col := fastCollector(t, collect.Config{})
		opts := chaosOptions()
		opts.Watch = col.WatchPlane
		tb := laneNew(t, opts)
		if err := tb.WaitConverged(ConvergeOptions{Timeout: 10 * time.Second}); err != nil {
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
		// The link_up event reaches the collector before the kill, so the
		// timeline holds the link's establishment.
		if took := until(t, time.Second, "link "+dialer+" -> "+target+" on the timeline", func() bool {
			return hasLink(col.TopologyAt(tb.Net.Clock().Now(), true))
		}); took != 0 {
			t.Errorf("link on the timeline %v after convergence, want 0s", took)
		}

		clock := tb.Net.Clock()
		killed := clock.Now()
		if err := tb.RunSchedule([]Fault{at(0, KillBrokerFault(target))}); err != nil {
			t.Fatalf("schedule: %v", err)
		}

		// The kill's evidence arrives from three independent journals: the
		// testbed's fault_injected, the survivor's link_down naming the dead
		// peer, and its supervisor's reconnect_attempt failures. Each reaches
		// the collector at an exact model time after the kill.
		wantEvent := func(f collect.EventFilter, subject, desc string, after time.Duration) collect.NodeEvent {
			t.Helper()
			var found collect.NodeEvent
			until(t, time.Second, desc, func() bool {
				for _, ev := range col.Events(f).Events {
					if subject == "" || ev.Subject == subject {
						found = ev
						return true
					}
				}
				return false
			})
			if got := clock.Now().Sub(killed); got != after {
				t.Errorf("%s reached the collector %v after the kill, want %v", desc, got, after)
			}
			return found
		}
		fault := wantEvent(collect.EventFilter{Node: "testbed", Type: obs.EventFaultInjected}, "",
			"fault_injected", 20*time.Millisecond)
		if fault.Subject == "" || !fault.AtAligned.Equal(killed) {
			t.Errorf("fault_injected = %+v, want a fault name, at the kill %v", fault, killed)
		}
		wantEvent(collect.EventFilter{Node: dialer, Type: obs.EventLinkDown}, target,
			"link_down naming the dead peer", 20*time.Millisecond)
		wantEvent(collect.EventFilter{Type: obs.EventReconnectAttempt}, targetAddr,
			"reconnect_attempt against the dead peer", 120*time.Millisecond)

		// Time travel: the same store answers differently for instants either
		// side of the teardown. The peer is dead, so the journal's final word on
		// this edge is a link_down; probe just before it (after the last
		// preceding link_up) and at it — instants taken from the journal's own
		// aligned stamps.
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
	})
}

// TestKillLosesAtMostOneInterval emits a burst of journal events on a broker
// inside its last scrape interval and kills it at once. A kill takes the
// node's final scrape, so the collector holds every event the broker
// emitted, node_stop last, with no sequence gap, the moment the kill
// returns: a kill loses at most one interval of events, and here none.
func TestKillLosesAtMostOneInterval(t *testing.T) {
	exact(t, func(t *testing.T) {
		col := fastCollector(t, collect.Config{})
		tb := laneNew(t, Options{
			Seed: 42, NoBDN: true,
			Brokers: []BrokerSpec{{Site: simnet.SiteIndianapolis, Name: "broker-k"}},
			Watch:   col.WatchPlane,
		})
		journal := tb.brokerDeps["broker-k"].cfg.Journal
		synctest.Wait()
		if col.EventCount() == 0 { // the first scrape carried node_start
			t.Fatal("broker-k never scraped")
		}

		for i := 0; i < 100; i++ {
			journal.Emit(obs.EventReconnectAttempt, "burst-peer", fmt.Sprintf("attempt=%d", i))
		}
		if !tb.KillBroker("broker-k") {
			t.Fatal("KillBroker(broker-k) found no broker")
		}
		last := journal.Seq()
		v := col.Events(collect.EventFilter{Node: "broker-k"})
		n := len(v.Events)
		if n == 0 || uint64(n) != last || v.Gaps != 0 || v.Events[n-1].Type != obs.EventNodeStop {
			t.Fatalf("collector holds %d of %d events (gaps %d): %+v", n, last, v.Gaps, v)
		}
	})
}
