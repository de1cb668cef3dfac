//go:build goexperiment.synctest

package testbed

import (
	"testing"
	"time"

	"narada/internal/core"
	"narada/internal/simnet"
	"narada/internal/topology"
)

// TestJoinNetworkSurvivesSelectedBrokerDeath is the discovery-side resilience
// contract: a joiner discovers and links to the nearest broker; that broker
// then crashes. Once the dead broker's registration has aged out of the BDN,
// a re-run of the join MUST select a live broker — the dead one can never be
// handed out again.
func TestJoinNetworkSurvivesSelectedBrokerDeath(t *testing.T) {
	exact(t, func(t *testing.T) {
		opts := chaosOptions()
		opts.Topology = topology.Unconnected
		opts.Brokers = append(PaperBrokers(),
			BrokerSpec{Site: simnet.SiteCardiff, Name: "joiner", Register: false})
		tb := laneNew(t, opts)

		joiner := tb.BrokerByName("joiner")
		if joiner == nil {
			t.Fatal("joiner broker not deployed")
		}

		d1 := tb.NewDiscoverer(simnet.SiteCardiff, "joiner-disc1", core.Config{})
		first, err := joiner.JoinNetwork(d1)
		if err != nil {
			t.Fatalf("first join: %v", err)
		}
		if first.LogicalAddress != "broker-cardiff" {
			t.Fatalf("first join selected %s, want broker-cardiff", first.LogicalAddress)
		}

		// The selected broker crashes. Its registration carries a TTL, so after
		// the refresh window lapses the BDN must stop advertising it.
		if !tb.KillBroker(first.LogicalAddress) {
			t.Fatalf("could not kill %s", first.LogicalAddress)
		}
		clock := tb.Net.Clock()
		killed := clock.Now()
		deadline := killed.Add(15 * time.Second)
		for {
			listed := false
			for _, info := range tb.BDN.Brokers() {
				if info.LogicalAddress == first.LogicalAddress {
					listed = true
				}
			}
			if !listed {
				break
			}
			if clock.Now().After(deadline) {
				t.Fatalf("dead broker %s still advertised after TTL window", first.LogicalAddress)
			}
			clock.Sleep(100 * time.Millisecond)
		}
		if got, want := clock.Now().Sub(killed), 1300*time.Millisecond; got != want {
			t.Errorf("the BDN stopped listing %s %v after it died, want %v", first.LogicalAddress, got, want)
		}

		// Rediscovery after expiry: the join must succeed and must pick a broker
		// that is actually alive.
		d2 := tb.NewDiscoverer(simnet.SiteCardiff, "joiner-disc2", core.Config{})
		second, err := joiner.JoinNetwork(d2)
		if err != nil {
			t.Fatalf("rediscovery join: %v", err)
		}
		if second.LogicalAddress != "broker-indianapolis" {
			t.Fatalf("rediscovery selected %s, want broker-indianapolis", second.LogicalAddress)
		}

		// The shortlist the discoverer worked from must not contain the dead
		// broker either — the target set, not just the final pick, is clean.
		for _, info := range d2.LastTargetSet() {
			if info.LogicalAddress == first.LogicalAddress {
				t.Errorf("dead broker %s still in rediscovery target set", first.LogicalAddress)
			}
		}
	})
}
