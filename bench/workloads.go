package main

import "time"

// Run shape, the same for every workload. A run is set-up, warm-up, then as
// many rounds as fit in --seconds; every end-to-end figure is computed per
// round and reported as the median over rounds.
const (
	closedDur = 1000 * time.Millisecond // closed-loop (capacity) segment of a round
	openDur   = 1500 * time.Millisecond // open-loop (latency, CPU) segment of a round
	warmDur   = 500 * time.Millisecond  // unmeasured, once closed-loop and once open-loop
	drainMax  = 10 * time.Second        // budget for in-flight operations after a segment; spent only when one is lost
	setupRuns = 5                       // set-ups per run; setup_s is their median

	defaultSeed    = 1
	defaultSeconds = 25
)

// workload is one traffic mix. The names are final: later issues cite them.
type workload struct {
	Name string
	Why  string

	// Publish workloads.
	Payload   int // bytes of event payload (sequence + seeded bytes + CRC-32); discovery: replay only
	Sinks     int // counting subscribers beside the one verifying subscriber
	Window    int // closed loop: events outstanding at the slowest subscriber
	Rate      int // open loop: operations per second, fixed
	Chain     bool
	Ballast   int // subscriptions held by the ballast connection
	ChurnRate int // subscribe/unsubscribe operations per second beside the traffic

	// Discovery workload.
	Discover   bool
	Brokers    int
	Requesters int
}

var workloads = []workload{
	{
		Name:    "fanout_small",
		Why:     "smallest message to 4 subscribers, so per-message cost (recv, decode, dedup, match, encode, enqueue, writev) is all there is",
		Payload: 64, Sinks: 3, Window: 256, Rate: 20000,
	},
	{
		Name:    "bulk_large",
		Why:     "16 KiB payloads to 1 subscriber, so bytes dominate: per-frame allocation and copies move it, per-message work leaves it flat",
		Payload: 16 << 10, Sinks: 0, Window: 64, Rate: 4000,
	},
	{
		Name:    "chain_churn",
		Why:     "2 linked brokers, 256 topics, a 2000-pattern trie and subscription churn: forwarding, dedup and matching paid twice beside table writes",
		Payload: 256, Sinks: 0, Window: 256, Rate: 8000,
		Chain: true, Ballast: 2000, ChurnRate: 200,
	},
	{
		Name:     "discover_loopback",
		Why:      "the paper's discovery path over loopback UDP/TCP with 1 BDN and 6 brokers; publish fast-path work must leave it flat",
		Discover: true, Brokers: 6, Requesters: 2, Rate: 100,
		// The layer replay of the traced run pushes a message of about a
		// discovery request's size through the publish layers, so transport
		// and codec figures exist for this workload too.
		Payload: 160,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
