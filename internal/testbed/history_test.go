package testbed

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"narada/internal/simnet"
	"narada/internal/supervise"
	"narada/internal/topology"
	"narada/internal/transport"
)

// The history checker's deployment: brokers refresh every historyAdvertise
// (their advertisements live three periods), and every member is sampled every
// historyPoll of model time while a fault schedule runs.
const (
	historyAdvertise = 2 * time.Second
	historyPoll      = 250 * time.Millisecond
	// historyTail is how long a run goes on after its last fault: past the L
	// window (one advertise interval plus two leases) and two more leases of
	// the single-primary invariant.
	historyTail = historyAdvertise + 4*replicaLease
)

// historySeeds are the fixed seeds every schedule runs under.
var historySeeds = []int64{1}

// memberSample is one member's state at one poll.
type memberSample struct {
	name    string
	up      bool
	primary bool
	epoch   uint64
	brokers []string
}

func (s memberSample) String() string {
	if !s.up {
		return s.name + " down"
	}
	role := "standby"
	if s.primary {
		role = "primary"
	}
	return fmt.Sprintf("%s %s epoch=%d brokers=%v", s.name, role, s.epoch, s.brokers)
}

// historyTick is one poll: the registering brokers alive then, and every member.
type historyTick struct {
	at      time.Duration // model time since the schedule started
	live    []string
	members []memberSample
}

// history is what a run recorded: its ticks, and when its first and last
// faults were applied — the last is the heal, and a partial schedule's
// partition lasts from the first to the heal.
type history struct {
	ticks         []historyTick
	partial       bool
	cutFrom, heal time.Duration
}

// historySchedule builds a fault list once the primary is known. A partial
// schedule's first fault opens the partial partition and its last heals it.
type historySchedule struct {
	name    string
	partial bool
	faults  func(tb *Testbed, primary string, standbys []string) []Fault
}

// bdnSite is the simulator site a BDN runs at.
func bdnSite(tb *Testbed, name string) string {
	a, _ := transport.ParseSimAddr(tb.BDNByName(name).Addr())
	return a.Site
}

func historySchedules() []historySchedule {
	return []historySchedule{
		{name: "primary kill and restart", faults: func(_ *Testbed, p string, _ []string) []Fault {
			return []Fault{at(time.Second, KillBDNFault(p)), at(21*time.Second, RestartBDNFault(p))}
		}},
		{name: "full partition of the primary's site", faults: func(tb *Testbed, p string, _ []string) []Fault {
			site := bdnSite(tb, p)
			var cut, heal []Fault
			for _, s := range simnet.PaperSiteNames() {
				if s != site {
					cut = append(cut, at(time.Second, PartitionFault(site, s)))
					heal = append(heal, at(31*time.Second, HealFault(site, s)))
				}
			}
			return append(cut, heal...)
		}},
		{name: "partial partition", partial: true, faults: func(tb *Testbed, p string, standbys []string) []Fault {
			// The primary is cut from one standby only; both still reach the third member.
			a, b := bdnSite(tb, p), bdnSite(tb, standbys[0])
			return []Fault{at(time.Second, PartitionFault(a, b)), at(61*time.Second, HealFault(a, b))}
		}},
		{name: "broker kill and TTL expiry", faults: func(*Testbed, string, []string) []Fault {
			return []Fault{at(time.Second, KillBrokerFault("broker-fsu"))}
		}},
		{name: "standby restart", faults: func(_ *Testbed, _ string, standbys []string) []Fault {
			// A broker dies first and expires, so R also holds across the
			// standby's recovery from its own disk.
			s := standbys[len(standbys)-1]
			return []Fault{at(time.Second, KillBrokerFault("broker-cardiff")),
				at(11*time.Second, KillBDNFault(s)), at(16*time.Second, RestartBDNFault(s))}
		}},
	}
}

// TestRegistryHistory is the replicated registry's history checker. A
// three-member replicated cluster serves four supervised, refreshing brokers
// while a fault schedule runs; every member's table, role and epoch are
// sampled on each poll, and the history must show:
//
//   - R, no resurrection: once a killed broker is absent from a member's
//     sample it never comes back on that member (across the member's restart
//     too) unless the broker restarted, and by the end it has expired
//     everywhere;
//   - L, no lost registration: after the last heal every live registering
//     broker is listed by every live member within one advertise interval
//     plus two leases;
//   - E, leadership: a member's epoch never decreases; two members primary in
//     one epoch resolve within one lease; from two leases after the last heal
//     there is exactly one primary; a partial partition costs at most two
//     promotions.
func TestRegistryHistory(t *testing.T) {
	for _, sc := range historySchedules() {
		for _, seed := range historySeeds {
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) {
				h := runHistory(t, seed, sc)
				if sc.partial {
					seen := h.promotions()
					t.Logf("%d promotions during the partial partition: %v", len(seen), seen)
				}
				for _, failure := range h.check() {
					t.Errorf("seed %d, schedule %q: %s", seed, sc.name, failure)
				}
			})
		}
	}
}

// runHistory deploys the cluster, waits for its first primary, then applies
// the schedule on the model clock, sampling every member on each poll until
// historyTail after the last fault.
func runHistory(t *testing.T, seed int64, sc historySchedule) *history {
	t.Helper()
	tb, err := New(Options{
		Seed:              seed,
		Topology:          topology.Unconnected,
		Brokers:           PaperBrokers()[1:],
		BDNCount:          3,
		BDNDataDir:        t.TempDir(),
		Replicate:         true,
		AdvertiseInterval: historyAdvertise,
		Supervise:         &supervise.Policy{BaseBackoff: 200 * time.Millisecond, MaxBackoff: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	p := tb.WaitPrimaryBDN(60 * time.Second)
	if p == nil {
		t.Fatal("no primary elected")
	}
	members := make([]string, 0, len(tb.bdnDeps))
	for name := range tb.bdnDeps {
		members = append(members, name)
	}
	sort.Strings(members)
	var standbys []string
	for _, name := range members {
		if name != p.Name() {
			standbys = append(standbys, name)
		}
	}
	// Replication addresses rank the members; list the standbys in that order.
	sort.Slice(standbys, func(i, j int) bool {
		return tb.replicas[standbys[i]].Addr() < tb.replicas[standbys[j]].Addr()
	})
	faults := sc.faults(tb, p.Name(), standbys)

	h := &history{partial: sc.partial}
	clock := tb.Net.Clock()
	start := clock.Now()
	next := 0
	for {
		now := clock.Now().Sub(start)
		for ; next < len(faults) && faults[next].At <= now; next++ {
			if err := faults[next].Do(tb); err != nil {
				t.Fatalf("seed %d, schedule %q: fault %q: %v", seed, sc.name, faults[next].Name, err)
			}
			if next == 0 {
				h.cutFrom = now
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

// sampleHistory reads every member's Brokers, IsPrimary and Epoch.
func (tb *Testbed) sampleHistory(at time.Duration, members []string) historyTick {
	tick := historyTick{at: at}
	for name, dep := range tb.brokerDeps {
		if dep.spec.Register && tb.BrokerByName(name) != nil {
			tick.live = append(tick.live, name)
		}
	}
	sort.Strings(tick.live)
	for _, name := range members {
		s := memberSample{name: name}
		if d, r := tb.BDNByName(name), tb.replicas[name]; d != nil && r != nil {
			s.up, s.primary, s.epoch = true, r.IsPrimary(), r.Epoch()
			for _, b := range d.Brokers() {
				s.brokers = append(s.brokers, b.LogicalAddress)
			}
		}
		tick.members = append(tick.members, s)
	}
	return tick
}

// check evaluates R, L and E over the history and returns every violation,
// each with the samples that show it.
func (h *history) check() []string {
	var out []string
	out = append(out, h.checkResurrection()...)
	out = append(out, h.checkLost()...)
	out = append(out, h.checkLeadership()...)
	return out
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
// registering broker at some poll within one advertise interval plus two
// leases, and still does at the last poll.
func (h *history) checkLost() []string {
	var out []string
	window := historyAdvertise + 2*replicaLease
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

// checkLeadership is E.
func (h *history) checkLeadership() []string {
	var out []string
	// A member's epoch never decreases, restarts included.
	for m := range h.ticks[0].members {
		var prev memberSample
		var prevAt time.Duration
		for _, tk := range h.ticks {
			s := tk.members[m]
			if !s.up {
				continue
			}
			if s.epoch < prev.epoch {
				out = append(out, fmt.Sprintf("E: epoch went back: %v at %v, then %v at %v", prev, prevAt, s, tk.at))
			}
			prev, prevAt = s, tk.at
		}
	}
	// Two members primary in one epoch resolve within one lease.
	dualSince := map[uint64]time.Duration{}
	for _, tk := range h.ticks {
		byEpoch := map[uint64][]memberSample{}
		for _, s := range tk.members {
			if s.up && s.primary {
				byEpoch[s.epoch] = append(byEpoch[s.epoch], s)
			}
		}
		for e, since := range dualSince {
			if len(byEpoch[e]) < 2 {
				delete(dualSince, e)
			} else if tk.at-since > replicaLease {
				out = append(out, fmt.Sprintf("E: two primaries in epoch %d since %v, still at %v: %v",
					e, since, tk.at, byEpoch[e]))
				delete(dualSince, e)
			}
		}
		for e, ps := range byEpoch {
			if _, ok := dualSince[e]; !ok && len(ps) > 1 {
				dualSince[e] = tk.at
			}
		}
	}
	// Exactly one primary from two leases after the last heal.
	for _, tk := range h.ticks {
		if tk.at < h.heal+2*replicaLease {
			continue
		}
		var primaries []memberSample
		for _, s := range tk.members {
			if s.up && s.primary {
				primaries = append(primaries, s)
			}
		}
		if len(primaries) != 1 {
			out = append(out, fmt.Sprintf("E: %d primaries at %v, %v after the heal: %v",
				len(primaries), tk.at, tk.at-h.heal, tk.members))
			break
		}
	}
	if h.partial {
		if seen := h.promotions(); len(seen) > 2 {
			out = append(out, fmt.Sprintf("E: %d promotions during the partial partition %v–%v: %s",
				len(seen), h.cutFrom, h.heal, strings.Join(seen, ", ")))
		}
	}
	return out
}

// promotions lists the (member, epoch) primaryships first sampled inside the
// partial partition whose epoch is above every epoch held when it began.
func (h *history) promotions() []string {
	var before uint64
	held := map[string]bool{}
	var seen []string
	for _, tk := range h.ticks {
		for _, s := range tk.members {
			switch {
			case !s.up:
			case tk.at < h.cutFrom:
				before = max(before, s.epoch)
			case tk.at <= h.heal && s.primary && s.epoch > before:
				key := fmt.Sprintf("%s@%d", s.name, s.epoch)
				if !held[key] {
					held[key] = true
					seen = append(seen, fmt.Sprintf("%s at %v", key, tk.at))
				}
			}
		}
	}
	return seen
}
