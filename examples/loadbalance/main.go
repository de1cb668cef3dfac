// Load balancing: the paper's §8 advantage 3 in action. A cluster runs one
// heavily loaded broker; clients keep selecting it until a fresh broker is
// added to the same cluster — after which discovery, seeing the usage
// metrics in the responses, preferentially sends new clients to the
// newcomer. No central coordination: the weighting in each client does it.
package main

import (
	"fmt"
	"log"
	"time"

	"narada/internal/broker"
	"narada/internal/core"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/testbed"
	"narada/internal/topology"
	"narada/internal/transport"
)

const mib = 1024 * 1024

func main() {
	busy := metrics.Usage{
		TotalMemBytes: 512 * mib, UsedMemBytes: 470 * mib, CPULoad: 0.9,
	}
	tb, err := testbed.New(testbed.Options{
		Topology: topology.Unconnected,
		Seed:     21,
		Brokers: []testbed.BrokerSpec{
			{Site: simnet.SiteIndianapolis, Name: "cluster-veteran", Register: true, Usage: busy},
			{Site: simnet.SiteFSU, Name: "faraway", Register: true},
		},
		InjectOverhead: time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()

	discover := func(who string) string {
		cfg := core.Config{CollectWindow: 2 * time.Second, MaxResponses: 3}
		cfg.Selection.TargetSetSize = 1 // let the weighting decide
		d := tb.NewDiscoverer(simnet.SiteBloomington, who, cfg)
		res, err := d.Discover()
		if err != nil {
			log.Fatal(err)
		}
		return res.Selected.LogicalAddress
	}

	fmt.Println("before adding a broker to the cluster:")
	for i := 0; i < 3; i++ {
		fmt.Printf("  client %d -> %s\n", i, discover(fmt.Sprintf("pre-%d", i)))
	}

	// Operations adds a fresh broker to the overloaded cluster and it
	// advertises itself to the BDN like any other broker.
	node := transport.NewSimNode(tb.Net, simnet.SiteIndianapolis, "cluster-newcomer", 0)
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()
	fresh, err := broker.New(node, ntp, broker.Config{
		LogicalAddress: "cluster-newcomer",
		Realm:          simnet.SiteIndianapolis,
		Sampler: metrics.NewStaticSampler(metrics.Usage{
			TotalMemBytes: 512 * mib, UsedMemBytes: 24 * mib, CPULoad: 0.01,
		}),
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := fresh.Start(); err != nil {
		log.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.RegisterWithBDN(tb.BDN.Addr()); err != nil {
		log.Fatal(err)
	}
	tb.Net.Clock().Sleep(200 * time.Millisecond)
	fmt.Println("\nnewcomer added to the cluster and registered with the BDN")

	fmt.Println("\nafter:")
	for i := 0; i < 3; i++ {
		fmt.Printf("  client %d -> %s\n", i, discover(fmt.Sprintf("post-%d", i)))
	}
	fmt.Println("\nThe newly added broker is assimilated immediately: discovery")
	fmt.Println("operates on the current state of the broker network.")
}
