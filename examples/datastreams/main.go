// Data streams: combine three substrate services end-to-end — discover the
// nearest broker, then move a large compressed dataset over it using the
// fragmentation/coalescing service carried on reliable (acknowledged,
// redelivered, in-order) delivery. This is the paper's motivating workload:
// Grid clients moving large scientific payloads through the brokering
// substrate they discovered dynamically.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"time"

	"narada/examples/datastreams/fragment"
	"narada/examples/datastreams/reliable"
	"narada/internal/bdn"
	"narada/internal/broker"
	"narada/internal/core"
	"narada/internal/simnet"
	"narada/internal/testbed"
	"narada/internal/topology"
)

func main() {
	if err := run(40000); err != nil {
		log.Fatal(err)
	}
}

// run moves a dataset of the given number of rows from a Bloomington producer
// to an FSU consumer and reports whether it arrived intact.
func run(rows int) error {
	tb, err := testbed.New(testbed.Options{
		Topology:     topology.Star,
		InjectPolicy: bdn.InjectClosestFarthest,
		Seed:         99,
	})
	if err != nil {
		return err
	}
	defer tb.Close()

	// 1. Discover the nearest broker from Bloomington.
	d := tb.NewDiscoverer(simnet.SiteBloomington, "stream-client", core.Config{
		CollectWindow: 2 * time.Second,
		MaxResponses:  5,
	})
	res, err := d.Discover()
	if err != nil {
		return err
	}
	fmt.Printf("discovered %s (RTT %v)\n", res.Selected.LogicalAddress, res.SelectedRTT)
	addr := res.Selected.Endpoint("tcp")

	// 2. Reliable subscriber at FSU (the consumer of the dataset), attached
	// to its own nearest broker — events cross the broker network.
	subNode := tb.ClientNode(simnet.SiteFSU, "consumer")
	subBroker := tb.BrokerByName("broker-fsu")
	subClient, err := broker.Connect(subNode, subBroker.StreamAddr(), "consumer")
	if err != nil {
		return err
	}
	defer subClient.Close()
	sub := reliable.NewSubscriber(subClient)
	defer sub.Close()
	if err := sub.Subscribe("datasets/climate/*"); err != nil {
		return err
	}
	tb.Net.Clock().Sleep(200 * time.Millisecond)

	// 3. Reliable publisher at Bloomington, connected to the broker that
	// discovery selected.
	pubNode := tb.ClientNode(simnet.SiteBloomington, "producer")
	pubClient, err := broker.Connect(pubNode, addr, "producer")
	if err != nil {
		return err
	}
	defer pubClient.Close()
	pub, err := reliable.NewPublisher(pubNode, pubClient, reliable.PublisherConfig{
		Source:         "producer",
		RedeliverAfter: 1 * time.Second,
	})
	if err != nil {
		return err
	}
	defer pub.Close()

	// 4. A large "dataset" — structured rows with varying readings, so it
	// compresses usefully but still spans multiple fragments.
	var sb bytes.Buffer
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "station-%04d,temp=%d.%d,pressure=%d,humidity=%d\n",
			i%512, 15+i%20, i%10, 990+i%40, 40+(i*7)%55)
	}
	dataset := sb.Bytes()
	frags, err := fragment.Split(dataset, fragment.Config{
		Compress:     true,
		FragmentSize: 16 * 1024,
	})
	if err != nil {
		return err
	}
	carried := 0
	for _, f := range frags {
		carried += len(f.Data)
	}
	fmt.Printf("dataset %d bytes -> %d fragments carrying %d bytes (compressed %.1fx)\n",
		len(dataset), len(frags), carried, float64(len(dataset))/float64(carried))

	for _, f := range frags {
		if err := pub.Publish("datasets/climate/run42", fragment.Encode(f)); err != nil {
			return err
		}
	}

	// 5. Coalesce at the consumer.
	co := fragment.NewCoalescer(0, nil)
	for {
		env, err := sub.Next(20 * time.Second)
		if err != nil {
			return fmt.Errorf("stream stalled: %w", err)
		}
		f, err := fragment.Decode(env.Payload)
		if err != nil {
			return err
		}
		payload, done, err := co.Add(f)
		if err != nil {
			return err
		}
		if done {
			if !bytes.Equal(payload, dataset) {
				return errors.New("reassembled dataset differs from the original")
			}
			fmt.Printf("consumer reassembled %d bytes intact across the broker network\n",
				len(payload))
			break
		}
	}
	fmt.Println("discovery + reliable delivery + fragmentation: end-to-end OK")
	return nil
}
