//go:build goexperiment.synctest

package testbed

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"narada/internal/simnet"
	"narada/internal/topology"
	"narada/internal/transport"
)

// The history checker's deployment: brokers refresh every historyAdvertise
// (their advertisements live three periods), and every member is sampled every
// historyPoll of model time while a fault schedule runs.
const (
	historyAdvertise = 2 * time.Second
	historyPoll      = 250 * time.Millisecond
	// historyWindow is L's bound. A member that missed a registration has it
	// from the broker's next refresh or supervised redial, or from a peer's
	// table one exchange period (2 s) later; 10 s covers either with room for
	// a redial's backoff.
	historyWindow = 10 * time.Second
	// historyTail is how long a run goes on after its last fault: past the L
	// window and one more refresh.
	historyTail = historyWindow + historyAdvertise
	// soloBroker registers with one member only, in the schedule that has it.
	soloBroker = "broker-solo"
)

// historySeeds are the fixed seeds every schedule runs under.
var historySeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// memberSample is one member's state at one poll.
type memberSample struct {
	name    string
	up      bool
	brokers []string
}

func (s memberSample) String() string {
	if !s.up {
		return s.name + " down"
	}
	return fmt.Sprintf("%s brokers=%v", s.name, s.brokers)
}

// historyTick is one poll: the registering brokers alive then, and every member.
type historyTick struct {
	at      time.Duration // model time since the schedule started
	live    []string
	members []memberSample
}

// history is what a run recorded: its ticks, and when its last fault — the
// heal — was applied.
type history struct {
	ticks []historyTick
	heal  time.Duration
}

// historySchedule builds a fault list over the members, first deployed first.
// A solo schedule also deploys soloBroker, which registers with no member
// until a fault says so.
type historySchedule struct {
	name   string
	solo   bool
	faults func(tb *Testbed, members []string) []Fault
}

// bdnSite is the simulator site a BDN runs at.
func bdnSite(tb *Testbed, name string) string {
	a, _ := transport.ParseSimAddr(tb.BDNByName(name).Addr())
	return a.Site
}

func historySchedules() []historySchedule {
	return []historySchedule{
		{name: "first member kill and restart", faults: func(_ *Testbed, m []string) []Fault {
			return []Fault{at(time.Second, KillBDNFault(m[0])), at(21*time.Second, RestartBDNFault(m[0]))}
		}},
		{name: "full partition of the first member's site", faults: func(tb *Testbed, m []string) []Fault {
			site := bdnSite(tb, m[0])
			var cut, heal []Fault
			for _, s := range simnet.PaperSiteNames() {
				if s != site {
					cut = append(cut, at(time.Second, PartitionFault(site, s)))
					heal = append(heal, at(31*time.Second, HealFault(site, s)))
				}
			}
			return append(cut, heal...)
		}},
		{name: "partial partition", faults: func(tb *Testbed, m []string) []Fault {
			// The first member is cut from the second only; both still reach the third.
			a, b := bdnSite(tb, m[0]), bdnSite(tb, m[1])
			return []Fault{at(time.Second, PartitionFault(a, b)), at(61*time.Second, HealFault(a, b))}
		}},
		{name: "broker kill and TTL expiry", faults: func(*Testbed, []string) []Fault {
			return []Fault{at(time.Second, KillBrokerFault("broker-fsu"))}
		}},
		{name: "last member restart", faults: func(_ *Testbed, m []string) []Fault {
			// A broker dies first and expires, so R also holds across the
			// member's recovery from its own disk.
			s := m[len(m)-1]
			return []Fault{at(time.Second, KillBrokerFault("broker-cardiff")),
				at(11*time.Second, KillBDNFault(s)), at(16*time.Second, RestartBDNFault(s))}
		}},
		{name: "broker dies while the first member is down", faults: func(_ *Testbed, m []string) []Fault {
			// The member restarts more than two TTLs (6 s each) after the
			// broker died: the others' tombstones have lapsed, and the copy
			// it recovered from disk still lists the broker. R holds on the
			// others only if they refuse that copy.
			return []Fault{at(time.Second, KillBDNFault(m[0])), at(2*time.Second, KillBrokerFault("broker-fsu")),
				at(19*time.Second, RestartBDNFault(m[0]))}
		}},
		{name: "registration with one member only", solo: true, faults: func(_ *Testbed, m []string) []Fault {
			// Only the second member hears from the broker; L has every member list it.
			return []Fault{at(time.Second, Fault{Name: "register " + soloBroker + " with " + m[1],
				Do: func(tb *Testbed) error {
					return tb.BrokerByName(soloBroker).RegisterWithBDN(tb.BDNByName(m[1]).Addr())
				}})}
		}},
	}
}

// TestRegistryHistory is the BDN set's history checker. Three members that
// pull each other's tables serve four supervised, refreshing brokers while a
// fault schedule runs; every member's table is sampled on each poll, and the
// history must show:
//
//   - R, no resurrection: once a killed broker is absent from a member's
//     sample it never comes back on that member (across the member's restart
//     too) unless the broker restarted, and by the end it has expired
//     everywhere;
//   - L, no lost registration: after the last heal every live registering
//     broker is listed by every live member within historyWindow, and still
//     is at the end — a broker that registered with one member included.
func TestRegistryHistory(t *testing.T) {
	for _, sc := range historySchedules() {
		for _, seed := range historySeeds {
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) {
				exact(t, func(t *testing.T) {
					h := runHistory(t, seed, sc)
					for _, failure := range h.check() {
						t.Errorf("seed %d, schedule %q: %s", seed, sc.name, failure)
					}
				})
			})
		}
	}
}

// runHistory deploys the set, then applies the schedule on the model clock,
// sampling every member on each poll until historyTail after the last fault.
func runHistory(t *testing.T, seed int64, sc historySchedule) *history {
	t.Helper()
	brokers := PaperBrokers()
	solo := BrokerSpec{Site: brokers[0].Site, Name: soloBroker}
	brokers = brokers[1:]
	if sc.solo {
		brokers = append(brokers, solo)
	}
	tb := laneNew(t, Options{
		Seed:              seed,
		Topology:          topology.Unconnected,
		Brokers:           brokers,
		BDNCount:          3,
		BDNDataDir:        t.TempDir(),
		Replicate:         true,
		AdvertiseInterval: historyAdvertise,
		Supervise:         true,
	})
	members := make([]string, len(tb.BDNs))
	for i, d := range tb.BDNs {
		members[i] = d.Name()
	}
	faults := sc.faults(tb, members)

	h := &history{}
	clock := tb.Net.Clock()
	start := clock.Now()
	next := 0
	for {
		now := clock.Now().Sub(start)
		for ; next < len(faults) && faults[next].At <= now; next++ {
			if err := faults[next].Do(tb); err != nil {
				t.Fatalf("seed %d, schedule %q: fault %q: %v", seed, sc.name, faults[next].Name, err)
			}
			h.heal = now
		}
		h.ticks = append(h.ticks, tb.sampleHistory(now, members))
		if next == len(faults) && now >= h.heal+historyTail {
			return h
		}
		clock.Sleep(historyPoll)
	}
}

// sampleHistory reads every member's Brokers.
func (tb *Testbed) sampleHistory(at time.Duration, members []string) historyTick {
	tick := historyTick{at: at}
	for name, dep := range tb.brokerDeps {
		if (dep.spec.Register || name == soloBroker) && tb.BrokerByName(name) != nil {
			tick.live = append(tick.live, name)
		}
	}
	sort.Strings(tick.live)
	for _, name := range members {
		s := memberSample{name: name}
		if d := tb.BDNByName(name); d != nil {
			s.up = true
			for _, b := range d.Brokers() {
				s.brokers = append(s.brokers, b.LogicalAddress)
			}
		}
		tick.members = append(tick.members, s)
	}
	return tick
}

// check evaluates R and L over the history and returns every violation, each
// with the samples that show it.
func (h *history) check() []string {
	return append(h.checkResurrection(), h.checkLost()...)
}

// checkResurrection is R: per member and broker, the order dead → absent →
// listed is a violation unless the broker came back to life in between.
func (h *history) checkResurrection() []string {
	var out []string
	last, killed := h.ticks[len(h.ticks)-1], h.everKilled()
	for m := range h.ticks[0].members {
		gone := map[string]time.Duration{} // killed broker → when this member first showed it absent
		for _, tk := range h.ticks {
			s := tk.members[m]
			for b := range gone {
				if slices.Contains(tk.live, b) {
					delete(gone, b) // the broker restarted: a new life
				}
			}
			if !s.up {
				continue
			}
			for _, b := range s.brokers {
				if at, ok := gone[b]; ok && !slices.Contains(tk.live, b) {
					out = append(out, fmt.Sprintf("R: killed %s absent from %s at %v, back at %v: %v",
						b, s.name, at, tk.at, s))
					delete(gone, b)
				}
			}
			for b := range killed {
				if _, ok := gone[b]; !ok && !slices.Contains(tk.live, b) && !slices.Contains(s.brokers, b) {
					gone[b] = tk.at
				}
			}
		}
		if s := last.members[m]; s.up {
			for b := range killed {
				if !slices.Contains(last.live, b) && slices.Contains(s.brokers, b) {
					out = append(out, fmt.Sprintf("R: killed %s never expired on %s: %v at %v", b, s.name, s, last.at))
				}
			}
		}
	}
	return out
}

// everKilled names the registering brokers, all live at the first tick,
// missing from a later one.
func (h *history) everKilled() map[string]bool {
	dead := map[string]bool{}
	for _, tk := range h.ticks {
		for _, b := range h.ticks[0].live {
			if !slices.Contains(tk.live, b) {
				dead[b] = true
			}
		}
	}
	return dead
}

// checkLost is L: from the last heal, each live member lists every live
// registering broker at some poll within historyWindow, and still does at the
// last poll.
func (h *history) checkLost() []string {
	var out []string
	window := historyWindow
	for m := range h.ticks[0].members {
		var seen []string
		ok := false
		for _, tk := range h.ticks {
			if tk.at < h.heal || tk.at > h.heal+window {
				continue
			}
			s := tk.members[m]
			seen = append(seen, fmt.Sprintf("%v %v (live %v)", tk.at, s, tk.live))
			if s.up && containsAll(s.brokers, tk.live) {
				ok = true
				break
			}
		}
		if !ok {
			out = append(out, fmt.Sprintf("L: %s did not list every live broker within %v of the heal at %v:\n\t%s",
				h.ticks[0].members[m].name, window, h.heal, strings.Join(seen, "\n\t")))
		}
		if last := h.ticks[len(h.ticks)-1]; last.members[m].up && !containsAll(last.members[m].brokers, last.live) {
			out = append(out, fmt.Sprintf("L: registration lost by the end: %v at %v (live %v)",
				last.members[m], last.at, last.live))
		}
	}
	return out
}

func containsAll(have, want []string) bool {
	for _, w := range want {
		if !slices.Contains(have, w) {
			return false
		}
	}
	return true
}
