// Multicast fallback and cached-target-set rediscovery (paper §7): the
// scheme "needs only 1 functioning BDN to work. In fact the approach could
// work even if none of the BDNs within the system are functioning."
//
// Act 1 — all BDNs down, multicast on: the request reaches realm-local
// brokers directly (only the Indiana broker hears a Bloomington client,
// reproducing the Figure 12 lab-scoping).
//
// Act 2 — a client returns after a prolonged disconnect with its cached
// last-target-set: it replays the request straight at those brokers and
// completes discovery with no BDN and no multicast.
package main

import (
	"fmt"
	"log"
	"time"

	"narada/internal/bdn"
	"narada/internal/core"
	"narada/internal/simnet"
	"narada/internal/testbed"
	"narada/internal/topology"
)

func main() {
	// Act 1: no BDN at all; brokers join the discovery multicast group.
	tb, err := testbed.New(testbed.Options{
		Topology:  topology.Unconnected,
		Seed:      33,
		NoBDN:     true,
		Multicast: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	d := tb.NewDiscoverer(simnet.SiteBloomington, "client", core.Config{
		CollectWindow: 1 * time.Second,
		MaxResponses:  1,
	})
	res, err := d.Discover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("act 1: no BDNs, multicast fallback\n")
	fmt.Printf("  discovered via %s: %s (realm %s) in %v\n",
		res.Via, res.Selected.LogicalAddress, res.Selected.Realm,
		res.Timing.Total().Round(time.Millisecond))
	fmt.Printf("  responses: %d (multicast is realm-scoped — far sites never hear it)\n",
		len(res.Responses))
	tb.Close()

	// Act 2: a functioning deployment, one successful discovery, then the
	// BDN dies. Rediscovery succeeds from the cached target set.
	tb2, err := testbed.New(testbed.Options{
		Topology:     topology.Star,
		InjectPolicy: bdn.InjectClosestFarthest,
		Seed:         34,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tb2.Close()
	d2 := tb2.NewDiscoverer(simnet.SiteBloomington, "returning-client", core.Config{
		CollectWindow: 2 * time.Second,
		MaxResponses:  5,
	})
	first, err := d2.Discover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nact 2: initial discovery via %s selected %s; cached target set of %d\n",
		first.Via, first.Selected.LogicalAddress, len(d2.LastTargetSet()))

	tb2.BDN.Close()
	fmt.Println("  ... BDN crashes; client disconnects for a while ...")

	second, err := d2.Discover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  rediscovery via %s: %d responses, selected %s\n",
		second.Via, len(second.Responses), second.Selected.LogicalAddress)
	fmt.Println("\nNo single point of failure: discovery survived the loss of every BDN.")
}
