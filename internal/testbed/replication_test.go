//go:build goexperiment.synctest

package testbed

import (
	"testing"
	"time"

	"narada/internal/broker"
	"narada/internal/core"
	"narada/internal/simnet"
	"narada/internal/topology"
)

// TestReplicatedBDNFailover is the headline durability scenario: one member
// of a 3-member BDN set is hard-killed, discovery keeps answering, the
// survivors list every broker — and not one broker re-registers. The
// survivors' tables are full because every broker registers with every
// member, as the paper prescribes; the members' table exchange adds a
// registration a member missed while it was down. The brokers run WITH
// supervision, so re-registration would happen if it were needed;
// Successes() == 0 proves it never was.
func TestReplicatedBDNFailover(t *testing.T) {
	exact(t, func(t *testing.T) {
		tb := laneNew(t, Options{
			Seed:       42,
			Topology:   topology.Unconnected,
			BDNCount:   3,
			BDNDataDir: t.TempDir(),
			Replicate:  true,
			Supervise:  true,
		})

		// Remember every surviving BDN's registration address before the kill.
		victim := tb.BDNs[0].Name()
		survivors := make(map[string]string) // name -> addr
		for _, d := range tb.BDNs[1:] {
			survivors[d.Name()] = d.Addr()
		}

		if !tb.KillBDN(victim) {
			t.Fatalf("KillBDN(%s) found nothing to kill", victim)
		}
		for _, d := range tb.BDNs {
			if got, want := d.BrokerCount(), len(tb.Brokers); got != want {
				t.Fatalf("survivor %s holds %d registrations, want %d", d.Name(), got, want)
			}
		}
		if err := tb.WaitConverged(ConvergeOptions{Timeout: 30 * time.Second}); err != nil {
			t.Fatalf("post-kill convergence: %v", err)
		}

		// Discovery still answers via the surviving members.
		d := tb.NewDiscoverer(simnet.SiteBloomington, "client-after-failover", discoveryConfig())
		res, err := d.Discover()
		if err != nil {
			t.Fatalf("discovery after failover: %v", err)
		}
		if res.Via != core.ViaBDN {
			t.Fatalf("Via = %s, want bdn", res.Via)
		}
		if len(res.Responses) == 0 {
			t.Fatal("no broker responses after failover")
		}

		// ZERO broker re-registrations. Each broker keeps a supervised
		// registration link per BDN; a Successes() increment means the
		// supervisor had to re-dial (and re-advertise) after losing the session.
		// The surviving BDNs never dropped theirs.
		for _, b := range tb.Brokers {
			for name, addr := range survivors {
				r := b.Supervisor(broker.SuperviseBDN, addr)
				if r == nil {
					t.Fatalf("%s has no registration supervisor for %s", b.LogicalAddress(), name)
				}
				if n := r.Successes(); n != 0 {
					t.Errorf("%s re-registered with %s %d times, want 0", b.LogicalAddress(), name, n)
				}
			}
		}
	})
}

// TestBDNRestartRecoversFromWAL kills a single durable BDN and restarts it:
// the registration table must come back from WAL + snapshot alone — the
// brokers have no supervision, so their refreshes ride the dead links and
// nothing can repopulate it over the network — and the recovered
// registrations must keep their original TTL deadlines (still valid right
// after restart, still swept once the original validity window lapses).
func TestBDNRestartRecoversFromWAL(t *testing.T) {
	exact(t, func(t *testing.T) {
		tb := laneNew(t, Options{
			Seed:       7,
			Topology:   topology.Unconnected,
			BDNDataDir: t.TempDir(),
			// Advertisements are valid for three periods: 5 minutes.
			AdvertiseInterval: 100 * time.Second,
			Brokers: []BrokerSpec{
				{Site: simnet.SiteFSU, Name: "broker-fsu", Register: true},
				{Site: simnet.SiteCardiff, Name: "broker-cardiff", Register: true},
			},
		})

		if err := tb.WaitConverged(ConvergeOptions{Timeout: 10 * time.Second}); err != nil {
			t.Fatal(err)
		}
		name := tb.BDN.Name()
		if got := tb.BDN.BrokerCount(); got != 2 {
			t.Fatalf("pre-kill BrokerCount = %d, want 2", got)
		}

		if !tb.KillBDN(name) {
			t.Fatalf("KillBDN(%s) found nothing to kill", name)
		}
		if err := tb.RestartBDN(name); err != nil {
			t.Fatalf("RestartBDN: %v", err)
		}
		d := tb.BDNByName(name)
		if d == nil {
			t.Fatal("restarted BDN not deployed")
		}

		// Immediately after restart the full table is back — recovered from the
		// WAL, not re-learned: these brokers cannot re-register.
		if got := d.BrokerCount(); got != 2 {
			t.Fatalf("post-restart BrokerCount = %d, want 2 (WAL recovery)", got)
		}

		// And discovery answers from the recovered table.
		disc := tb.NewDiscoverer(simnet.SiteBloomington, "client-after-restart", discoveryConfig())
		res, err := disc.Discover()
		if err != nil {
			t.Fatalf("discovery after restart: %v", err)
		}
		if res.BDN != name {
			t.Fatalf("answered by %q, want %q", res.BDN, name)
		}
		if len(res.Responses) != 2 {
			t.Fatalf("responses = %d, want 2", len(res.Responses))
		}

		// TTLs survived intact: the deadlines are the ORIGINAL ones, so once the
		// 5-minute validity window lapses the sweeper drops both registrations.
		tb.Net.Clock().Sleep(6 * time.Minute)
		deadline := tb.Net.Clock().Now().Add(30 * time.Second)
		for d.BrokerCount() != 0 {
			if tb.Net.Clock().Now().After(deadline) {
				t.Fatalf("recovered registrations never expired: BrokerCount = %d", d.BrokerCount())
			}
			tb.Net.Clock().Sleep(250 * time.Millisecond)
		}
	})
}

// TestDiscovererSurvivesBDNRestart: a requester keeps its session to the BDN
// between discoveries; when the BDN is gone and back in between, the next
// discovery finds the session dead, dials once more and succeeds without
// counting a retransmission.
func TestDiscovererSurvivesBDNRestart(t *testing.T) {
	exact(t, func(t *testing.T) {
		tb := laneNew(t, Options{
			Seed:       8,
			Topology:   topology.Unconnected,
			BDNDataDir: t.TempDir(),
			Brokers: []BrokerSpec{
				{Site: simnet.SiteFSU, Name: "broker-fsu", Register: true},
				{Site: simnet.SiteCardiff, Name: "broker-cardiff", Register: true},
			},
		})
		if err := tb.WaitConverged(ConvergeOptions{Timeout: 10 * time.Second}); err != nil {
			t.Fatal(err)
		}
		name := tb.BDN.Name()
		cfg := discoveryConfig()
		cfg.MaxResponses = 2
		disc := tb.NewDiscoverer(simnet.SiteBloomington, "client-across-restart", cfg)
		if _, err := disc.Discover(); err != nil {
			t.Fatalf("discovery before the restart: %v", err)
		}

		if !tb.KillBDN(name) {
			t.Fatalf("KillBDN(%s) found nothing to kill", name)
		}
		if err := tb.RestartBDN(name); err != nil {
			t.Fatalf("RestartBDN: %v", err)
		}
		res, err := disc.Discover()
		if err != nil {
			t.Fatalf("discovery after the restart: %v", err)
		}
		if res.BDN != name || res.Retransmits != 0 || len(res.Responses) != 2 {
			t.Fatalf("answered by %q with %d retransmits and %d responses, want %q, 0 and 2",
				res.BDN, res.Retransmits, len(res.Responses), name)
		}
	})
}
