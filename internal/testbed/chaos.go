package testbed

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"narada/internal/broker"
	"narada/internal/obs"
	"narada/internal/transport"
)

// Fault is one scripted event in a chaos schedule: at model-time offset At
// from the schedule's start, Do is applied to the testbed. Schedules express
// the paper's failure scenarios — partitions, lossy paths, broker and BDN
// crashes — as data, so tests read like timelines.
type Fault struct {
	At   time.Duration
	Name string
	Do   func(*Testbed) error
}

// PartitionFault severs all traffic between two sites.
func PartitionFault(a, b string) Fault {
	return Fault{Name: fmt.Sprintf("partition %s|%s", a, b),
		Do: func(tb *Testbed) error { tb.Net.Partition(a, b); return nil }}
}

// HealFault restores traffic between two partitioned sites.
func HealFault(a, b string) Fault {
	return Fault{Name: fmt.Sprintf("heal %s|%s", a, b),
		Do: func(tb *Testbed) error { tb.Net.Heal(a, b); return nil }}
}

// SetLossFault sets the datagram loss probability between two sites.
func SetLossFault(a, b string, p float64) Fault {
	return Fault{Name: fmt.Sprintf("loss %s|%s=%.2f", a, b, p),
		Do: func(tb *Testbed) error { tb.Net.SetLoss(a, b, p); return nil }}
}

// KillBrokerFault crashes the named broker.
func KillBrokerFault(name string) Fault {
	return Fault{Name: "kill " + name, Do: func(tb *Testbed) error {
		if !tb.KillBroker(name) {
			return fmt.Errorf("broker %s not deployed", name)
		}
		return nil
	}}
}

// RestartBrokerFault restarts a previously killed broker on its old address.
func RestartBrokerFault(name string) Fault {
	return Fault{Name: "restart " + name,
		Do: func(tb *Testbed) error { return tb.RestartBroker(name) }}
}

// KillBDNFault crashes the named BDN, losing its stored registrations.
func KillBDNFault(name string) Fault {
	return Fault{Name: "kill " + name, Do: func(tb *Testbed) error {
		if !tb.KillBDN(name) {
			return fmt.Errorf("bdn %s not deployed", name)
		}
		return nil
	}}
}

// RestartBDNFault restarts a previously killed BDN, empty, on its old address.
func RestartBDNFault(name string) Fault {
	return Fault{Name: "restart " + name,
		Do: func(tb *Testbed) error { return tb.RestartBDN(name) }}
}

// RunSchedule applies the faults in order, sleeping on the model clock
// between entries. At offsets must be non-decreasing; the first fault whose
// Do fails aborts the schedule.
func (tb *Testbed) RunSchedule(schedule []Fault) error {
	clock := tb.Net.Clock()
	elapsed := time.Duration(0)
	for _, f := range schedule {
		if f.At > elapsed {
			clock.Sleep(f.At - elapsed)
			elapsed = f.At
		}
		tb.journal.Emit(obs.EventFaultInjected, f.Name, fmt.Sprintf("at=%v", f.At))
		if err := f.Do(tb); err != nil {
			return fmt.Errorf("testbed: fault %q at %v: %w", f.Name, f.At, err)
		}
	}
	return nil
}

// ConvergeOptions bounds a WaitConverged call. All durations are model time.
type ConvergeOptions struct {
	// Timeout is the total convergence budget (default 30s).
	Timeout time.Duration
	// Publish additionally requires an end-to-end probe publish to flow from
	// the last live broker to a subscriber on the first.
	Publish bool
}

// WaitConverged re-checks every convergePoll while unconverged and gives one
// probe attempt probeTimeout, within which publishFlows publishes a probe every
// probeEvery until one is delivered (all model time).
const (
	convergePoll = 250 * time.Millisecond
	probeTimeout = 5 * time.Second
	probeEvery   = 300 * time.Millisecond
)

// WaitConverged polls the fabric until the self-healing invariants hold or
// the budget runs out:
//
//   - every topology edge between two live brokers is established in both
//     directions (supervision re-dialled severed links);
//   - every live broker that registers is listed by every live BDN
//     (re-registration and periodic refresh repopulated the directories);
//   - when TTLs are in force, no dead broker is still advertised anywhere
//     (stale registrations aged out);
//   - optionally, a probe publish flows end to end across the healed fabric.
//
// The returned error wraps the last unmet invariant, so a timing-out chaos
// test names exactly what never healed.
func (tb *Testbed) WaitConverged(o ConvergeOptions) error {
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	clock := tb.Net.Clock()
	deadline := clock.Now().Add(o.Timeout)
	for {
		err := tb.convergenceError()
		if err == nil && o.Publish {
			err = tb.publishFlows(probeTimeout)
		}
		if err == nil {
			return nil
		}
		if clock.Now().After(deadline) {
			return fmt.Errorf("testbed: not converged after %v: %w", o.Timeout, err)
		}
		clock.Sleep(convergePoll)
	}
}

// convergenceError returns nil when the structural invariants hold, else the
// first violation found.
func (tb *Testbed) convergenceError() error {
	for _, e := range tb.Edges {
		from, to := tb.BrokerByName(e.From), tb.BrokerByName(e.To)
		if from == nil || to == nil {
			continue // edges to dead brokers are expected to be down
		}
		if !slices.Contains(from.Peers(), e.To) {
			return fmt.Errorf("link %s->%s not established", e.From, e.To)
		}
		if !slices.Contains(to.Peers(), e.From) {
			return fmt.Errorf("link %s->%s not established (reverse)", e.To, e.From)
		}
	}
	// Dead-broker expiry only holds once registrations actually carry TTLs.
	ttls := tb.opts.AdvertiseInterval > 0
	for _, d := range tb.BDNs {
		listed := make(map[string]bool)
		for _, info := range d.Brokers() {
			listed[info.LogicalAddress] = true
		}
		for name, dep := range tb.brokerDeps {
			live := tb.BrokerByName(name) != nil
			switch {
			case live && dep.spec.Register && !listed[name]:
				return fmt.Errorf("broker %s not registered with %s", name, d.Name())
			case !live && ttls && listed[name]:
				return fmt.Errorf("dead broker %s still advertised by %s", name, d.Name())
			}
		}
	}
	return nil
}

// publishFlows attaches a subscriber to the first live broker and a publisher
// to the last, then requires a probe event on a fresh topic to cross the
// fabric — the user-visible definition of "healed".
func (tb *Testbed) publishFlows(timeout time.Duration) error {
	if len(tb.Brokers) == 0 {
		return errors.New("no live brokers")
	}
	sub, pub := tb.Brokers[0], tb.Brokers[len(tb.Brokers)-1]
	tb.probeSeq++
	topic := fmt.Sprintf("chaos/probe/%d", tb.probeSeq)
	clock := tb.Net.Clock()
	rc, err := broker.Connect(tb.ClientNode(sub.Info().Realm, fmt.Sprintf("chaos-sub%d", tb.probeSeq)),
		sub.StreamAddr(), "chaos-sub")
	if err != nil {
		return fmt.Errorf("probe subscriber: %w", err)
	}
	defer rc.Close()
	if err := rc.Subscribe(topic); err != nil {
		return fmt.Errorf("probe subscribe: %w", err)
	}
	pc, err := broker.Connect(tb.ClientNode(pub.Info().Realm, fmt.Sprintf("chaos-pub%d", tb.probeSeq)),
		pub.StreamAddr(), "chaos-pub")
	if err != nil {
		return fmt.Errorf("probe publisher: %w", err)
	}
	defer pc.Close()

	// How long a subscription takes to propagate through a routed fabric is
	// the fabric's business: publish the probe again until one arrives.
	deadline := clock.Now().Add(timeout)
	for clock.Now().Before(deadline) {
		if err := pc.Publish(topic, []byte("chaos-probe")); err != nil {
			return fmt.Errorf("probe publish: %w", err)
		}
		switch ev, err := rc.Next(probeEvery); {
		case err == nil && ev.Topic == topic:
			return nil
		case err != nil && !errors.Is(err, transport.ErrTimeout):
			return fmt.Errorf("probe on %s: %w", topic, err)
		}
	}
	return fmt.Errorf("probe on %s: no delivery within %v", topic, timeout)
}
