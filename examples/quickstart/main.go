// Quickstart: stand up a BDN and three brokers on the simulated WAN,
// discover the nearest broker from a Bloomington client, connect to it,
// and exchange a publish/subscribe message — the complete entity lifecycle
// from the paper's introduction.
package main

import (
	"fmt"
	"log"
	"time"

	"narada/internal/bdn"
	"narada/internal/broker"
	"narada/internal/core"
	"narada/internal/simnet"
	"narada/internal/testbed"
	"narada/internal/topology"
)

func main() {
	// One call deploys network + BDN + brokers: 5 paper brokers, star
	// topology, all registered with the BDN at Bloomington.
	tb, err := testbed.New(testbed.Options{
		Topology:     topology.Star,
		InjectPolicy: bdn.InjectClosestFarthest,
		Seed:         42,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tb.Close()
	fmt.Printf("deployed %d brokers, %d links, BDN %s\n",
		len(tb.Brokers), len(tb.Edges), tb.BDN.Name())

	// A new entity arrives at Bloomington and issues a discovery request.
	d := tb.NewDiscoverer(simnet.SiteBloomington, "quickstart-client", core.Config{
		CollectWindow: 2 * time.Second,
		MaxResponses:  5,
	})
	res, err := d.Discover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d brokers responded; target set of %d; selected %s (RTT %v)\n",
		len(res.Responses), len(res.TargetSet),
		res.Selected.LogicalAddress, res.SelectedRTT)
	fmt.Printf("\ndiscovery timing:\n%s\n", res.Timing.String())

	// Connect to the discovered broker and use the pub/sub substrate.
	node := tb.ClientNode(simnet.SiteBloomington, "quickstart-app")
	client, err := broker.Connect(node, res.Selected.Endpoint("tcp"), "quickstart-app")
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	if err := client.Subscribe("demo/greetings/*"); err != nil {
		log.Fatal(err)
	}
	tb.Net.Clock().Sleep(100 * time.Millisecond) // let the subscription land

	// Publish from a *different* broker: the substrate routes it across the
	// broker network to our subscriber.
	far := tb.BrokerByName("broker-cardiff")
	if err := far.Publish("demo/greetings/hello", []byte("hello from Cardiff")); err != nil {
		log.Fatal(err)
	}
	ev, err := client.Next(10 * time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreceived on %q: %s\n", ev.Topic, ev.Payload)
}
