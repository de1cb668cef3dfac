package testbed

import (
	"errors"
	"slices"
	"testing"
	"time"

	"narada/internal/core"
	"narada/internal/simnet"
	"narada/internal/topology"
)

// chaosOptions is a fully self-healing deployment: supervised links and
// registrations, heartbeat liveness, periodic advertisement refresh with TTL
// expiry. Intervals are model time.
func chaosOptions() Options {
	return Options{
		Topology:          topology.Linear,
		Supervise:         true,
		Heartbeat:         200 * time.Millisecond,
		AdvertiseInterval: 500 * time.Millisecond, // TTL defaults to 1.5s
		SweepInterval:     250 * time.Millisecond,
	}
}

// at pins a fault helper to a schedule offset.
func at(offset time.Duration, f Fault) Fault {
	f.At = offset
	return f
}

// discoveryConfig returns client settings sized for the 5-broker testbed.
func discoveryConfig() core.Config {
	return core.Config{
		CollectWindow: 1500 * time.Millisecond,
		MaxResponses:  5,
	}
}

// TestNewReturnsSettled: the moment New returns, the deployment is the one
// asked for — no sleep, no poll. Twenty seeds of the linear five-broker
// deployment of Figure 10: the one registering broker is listed and every
// edge of the chain is up in both directions.
func TestNewReturnsSettled(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		specs := PaperBrokers()
		for i := range specs {
			specs[i].Register = i == 0
		}
		tb, err := New(Options{Topology: topology.Linear, Seed: seed, Brokers: specs})
		if err != nil {
			t.Fatal(err)
		}
		if n := tb.BDN.BrokerCount(); n != 1 {
			t.Errorf("seed %d: BDN knows %d brokers, want 1", seed, n)
		}
		if len(tb.Edges) != 4 {
			t.Errorf("seed %d: %d edges, want 4", seed, len(tb.Edges))
		}
		for _, e := range tb.Edges {
			if !slices.Contains(tb.BrokerByName(e.From).Peers(), e.To) ||
				!slices.Contains(tb.BrokerByName(e.To).Peers(), e.From) {
				t.Errorf("seed %d: link %s<->%s not up in both directions", seed, e.From, e.To)
			}
		}
		tb.Close()
	}
}

func TestDiscoveryNoPath(t *testing.T) {
	tb, err := New(Options{Topology: topology.Unconnected, Seed: 16, NoBDN: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	d := tb.NewDiscoverer(simnet.SiteBloomington, "client", discoveryConfig())
	if _, err := d.Discover(); !errors.Is(err, core.ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}
