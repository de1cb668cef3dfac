package health

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"narada/internal/obs"
)

// captureSink records every published transition.
type captureSink struct {
	mu  sync.Mutex
	got []Alert
}

func (s *captureSink) Publish(a Alert) {
	s.mu.Lock()
	s.got = append(s.got, a)
	s.mu.Unlock()
}

func (s *captureSink) alerts() []Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Alert(nil), s.got...)
}

func liveNode(name string, now time.Time) NodeInput {
	return NodeInput{Name: name, LastSeen: now}
}

// at1s are the windows at the default 1 s scrape interval: deadman and
// resolve 3 s, retention 10 min.
var at1s = WindowsAt(time.Second)

// TestDeadmanLifecycle walks one node through silent → firing → back →
// resolved, checking the hysteresis on both edges.
func TestDeadmanLifecycle(t *testing.T) {
	sink := &captureSink{}
	e := New(at1s, Config{Sinks: []Sink{sink}})
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	lastSeen := base

	// Silent for 2 intervals: not yet dead.
	e.Evaluate(Input{Now: base.Add(2 * time.Second), Nodes: []NodeInput{{Name: "b1", LastSeen: lastSeen}}})
	if e.Firing() != 0 {
		t.Fatalf("firing after 2s silence, deadman is 3 intervals")
	}

	// Past the deadman horizon: fires at once.
	e.Evaluate(Input{Now: base.Add(4 * time.Second), Nodes: []NodeInput{{Name: "b1", LastSeen: lastSeen}}})
	if e.Firing() != 1 {
		t.Fatalf("firing = %d, want 1", e.Firing())
	}
	got := sink.alerts()
	if len(got) != 1 || got[0].Rule != RuleDeadman || got[0].State != StateFiring || got[0].Node != "b1" {
		t.Fatalf("sink saw %+v", got)
	}

	// Node returns; condition clear but within the 3s resolve hold — still
	// firing.
	lastSeen = base.Add(5 * time.Second)
	e.Evaluate(Input{Now: base.Add(5 * time.Second), Nodes: []NodeInput{{Name: "b1", LastSeen: lastSeen}}})
	if e.Firing() != 1 {
		t.Fatal("alert resolved without hysteresis")
	}

	// Clear for the resolve hold: resolves.
	e.Evaluate(Input{Now: base.Add(8 * time.Second), Nodes: []NodeInput{{Name: "b1", LastSeen: base.Add(7 * time.Second)}}})
	if e.Firing() != 0 {
		t.Fatalf("firing = %d after recovery, want 0", e.Firing())
	}
	got = sink.alerts()
	if len(got) != 2 || got[1].State != StateResolved {
		t.Fatalf("sink saw %+v, want firing then resolved", got)
	}
	alerts := e.Alerts()
	if len(alerts) != 1 || alerts[0].State != StateResolved || alerts[0].ResolvedAt == nil {
		t.Fatalf("retained alerts = %+v", alerts)
	}
}

func TestClockDriftRule(t *testing.T) {
	e := New(at1s, Config{})
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

	in := func(off time.Duration, lastSeen time.Time) Input {
		return Input{Now: base, Nodes: []NodeInput{{Name: "b1", LastSeen: lastSeen, ClockOffset: off}}}
	}
	e.Evaluate(in(15*time.Millisecond, base))
	if e.Firing() != 0 {
		t.Fatal("15ms offset inside the ±20ms envelope fired")
	}
	e.Evaluate(in(-25*time.Millisecond, base))
	if e.Firing() != 1 {
		t.Fatalf("-25ms offset did not fire; alerts=%+v", e.Alerts())
	}
	found := false
	for _, a := range e.Alerts() {
		if a.Rule == RuleClockDrift && a.State == StateFiring {
			found = true
		}
	}
	if !found {
		t.Fatalf("no firing clock_drift alert: %+v", e.Alerts())
	}

	// A deadman-silent node's stale offset must not raise clock drift.
	e2 := New(at1s, Config{})
	e2.Evaluate(Input{Now: base.Add(10 * time.Second),
		Nodes: []NodeInput{{Name: "b2", LastSeen: base, ClockOffset: 30 * time.Millisecond}}})
	for _, a := range e2.Alerts() {
		if a.Rule == RuleClockDrift {
			t.Fatalf("silent node raised clock drift: %+v", a)
		}
	}
}

func TestEgressRules(t *testing.T) {
	e := New(at1s, Config{}) // depth max 512, drop rate max 1/s
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

	// Non-broker (HasEgress false) with huge numbers: no egress alerts.
	e.Evaluate(Input{Now: base, Nodes: []NodeInput{{
		Name: "r1", LastSeen: base, EgressDepth: 9999, EgressDropRate: 9999}}})
	if len(e.Alerts()) != 0 {
		t.Fatalf("non-broker raised egress alerts: %+v", e.Alerts())
	}

	// A broker just under both bounds stays quiet.
	e.Evaluate(Input{Now: base, Nodes: []NodeInput{{
		Name: "b1", LastSeen: base, HasEgress: true, EgressDepth: 500, EgressDropRate: 0.9}}})
	if len(e.Alerts()) != 0 {
		t.Fatalf("broker under the egress bounds raised %+v", e.Alerts())
	}

	e.Evaluate(Input{Now: base, Nodes: []NodeInput{{
		Name: "b1", LastSeen: base, HasEgress: true, EgressDepth: 600, EgressDropRate: 5}}})
	rules := map[string]bool{}
	for _, a := range e.Alerts() {
		if a.State == StateFiring {
			rules[a.Rule] = true
		}
	}
	if !rules[RuleEgressSaturation] || !rules[RuleEgressDrops] {
		t.Fatalf("firing rules = %v, want saturation and drops", rules)
	}
}

// TestLinkFlappingRule checks the supervision-rate rule: a node without
// reconnect counters never evaluates, occasional relinks stay quiet, and a
// link cycling faster than 0.05/s fires and resolves once it calms.
func TestLinkFlappingRule(t *testing.T) {
	e := New(at1s, Config{})
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

	// Non-supervised node (HasFlaps false) with a huge rate: no alert.
	e.Evaluate(Input{Now: base, Nodes: []NodeInput{{
		Name: "r1", LastSeen: base, LinkFlapRate: 10}}})
	if len(e.Alerts()) != 0 {
		t.Fatalf("non-supervised node raised flap alerts: %+v", e.Alerts())
	}

	// A couple of relinks over 5 minutes is healthy self-healing.
	e.Evaluate(Input{Now: base, Nodes: []NodeInput{{
		Name: "b1", LastSeen: base, HasFlaps: true, LinkFlapRate: 2.0 / 300}}})
	if e.Firing() != 0 {
		t.Fatalf("healthy relink rate fired: %+v", e.Alerts())
	}

	// 60 relinks over 5 minutes (0.2/s) is a flapping link.
	e.Evaluate(Input{Now: base, Nodes: []NodeInput{{
		Name: "b1", LastSeen: base, HasFlaps: true, LinkFlapRate: 0.2}}})
	if e.Firing() != 1 {
		t.Fatalf("firing = %d for 0.2/s flap rate, want 1", e.Firing())
	}
	found := false
	for _, a := range e.Alerts() {
		if a.Rule == RuleLinkFlapping && a.State == StateFiring {
			found = true
		}
	}
	if !found {
		t.Fatalf("no firing link_flapping alert: %+v", e.Alerts())
	}

	// Rate back under the bound for the resolve hold: resolves.
	e.Evaluate(Input{Now: base.Add(time.Second), Nodes: []NodeInput{{
		Name: "b1", LastSeen: base.Add(time.Second), HasFlaps: true, LinkFlapRate: 0}}})
	e.Evaluate(Input{Now: base.Add(4 * time.Second), Nodes: []NodeInput{{
		Name: "b1", LastSeen: base.Add(4 * time.Second), HasFlaps: true, LinkFlapRate: 0}}})
	if e.Firing() != 0 {
		t.Fatalf("flap alert did not resolve: %+v", e.Alerts())
	}
}

// TestBurnRateBothWindows checks the multi-window guard: a fast-window error
// spike alone (slow window healthy) must not fire, and a genuine sustained
// burn (both windows hot) must.
func TestBurnRateBothWindows(t *testing.T) {
	e := New(at1s, Config{}) // budget 0.01; thresholds 14.4 / 6
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

	// Fast window 50% errors (burn 50x) but slow window clean (burn ~1x).
	e.Evaluate(Input{Now: base, Probes: []ProbeInput{{
		Node: "p", FastOK: 5, FastErr: 5, SlowOK: 990, SlowErr: 10}}})
	if e.Firing() != 0 {
		t.Fatalf("short spike fired: %+v", e.Alerts())
	}

	// Both windows hot: fast 50x, slow 20x.
	e.Evaluate(Input{Now: base.Add(time.Second), Probes: []ProbeInput{{
		Node: "p", FastOK: 5, FastErr: 5, SlowOK: 800, SlowErr: 200}}})
	if e.Firing() != 1 {
		t.Fatalf("sustained burn did not fire: %+v", e.Alerts())
	}

	// No data burns nothing.
	e2 := New(at1s, Config{})
	e2.Evaluate(Input{Now: base, Probes: []ProbeInput{{Node: "idle"}}})
	if len(e2.Alerts()) != 0 {
		t.Fatalf("zero-total probe raised alerts: %+v", e2.Alerts())
	}
}

func TestLatencyBurnRule(t *testing.T) {
	e := New(at1s, Config{})
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	// 10% slow in the fast window (burn 10x) is under the 14.4x bound.
	e.Evaluate(Input{Now: base, Probes: []ProbeInput{{
		Node: "p", FastOK: 100, SlowOK: 1000,
		FastSlow: 10, FastTotal: 100, SlowSlow: 100, SlowTotal: 1000,
	}}})
	if len(e.Alerts()) != 0 {
		t.Fatalf("latency burn under the fast bound raised %+v", e.Alerts())
	}
	e.Evaluate(Input{Now: base, Probes: []ProbeInput{{
		Node:   "p",
		FastOK: 100, SlowOK: 1000, // success SLI healthy
		FastSlow: 30, FastTotal: 100, // 30% slow => burn 30x
		SlowSlow: 100, SlowTotal: 1000, // 10% slow => burn 10x
	}}})
	firing := map[string]bool{}
	for _, a := range e.Alerts() {
		if a.State == StateFiring {
			firing[a.Rule] = true
		}
	}
	if !firing[RuleProbeLatencyBurn] || firing[RuleProbeSLOBurn] {
		t.Fatalf("firing = %v, want latency burn only", firing)
	}
}

// TestRearmAfterResolve checks dedup: a resolved alert re-fires in place on a
// new violation instead of accumulating duplicate entries.
func TestRearmAfterResolve(t *testing.T) {
	sink := &captureSink{}
	e := New(at1s, Config{Sinks: []Sink{sink}})
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

	dead := func(at time.Time) Input {
		return Input{Now: at, Nodes: []NodeInput{{Name: "b1", LastSeen: base}}}
	}
	alive := func(at time.Time) Input {
		return Input{Now: at, Nodes: []NodeInput{liveNode("b1", at)}}
	}
	e.Evaluate(dead(base.Add(10 * time.Second)))  // fire
	e.Evaluate(alive(base.Add(11 * time.Second))) // clear...
	e.Evaluate(alive(base.Add(14 * time.Second))) // ...resolved
	e.Evaluate(Input{Now: base.Add(30 * time.Second),
		Nodes: []NodeInput{{Name: "b1", LastSeen: base.Add(14 * time.Second)}}}) // fire again
	if e.Firing() != 1 || len(e.Alerts()) != 1 {
		t.Fatalf("firing=%d alerts=%d, want one deduped alert", e.Firing(), len(e.Alerts()))
	}
	states := []string{}
	for _, a := range sink.alerts() {
		states = append(states, a.State)
	}
	want := []string{StateFiring, StateResolved, StateFiring}
	if len(states) != len(want) {
		t.Fatalf("transitions = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", states, want)
		}
	}
}

func TestResolvedGC(t *testing.T) {
	e := New(at1s, Config{}) // resolved alerts retained 10 min
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	e.Evaluate(Input{Now: base.Add(10 * time.Second), Nodes: []NodeInput{{Name: "b1", LastSeen: base}}})
	e.Evaluate(Input{Now: base.Add(11 * time.Second), Nodes: []NodeInput{liveNode("b1", base.Add(11*time.Second))}})
	e.Evaluate(Input{Now: base.Add(14 * time.Second), Nodes: []NodeInput{liveNode("b1", base.Add(14*time.Second))}})
	if len(e.Alerts()) != 1 {
		t.Fatalf("want one resolved alert retained, got %+v", e.Alerts())
	}
	e.Evaluate(Input{Now: base.Add(10 * time.Minute), Nodes: []NodeInput{liveNode("b1", base.Add(10*time.Minute))}})
	if len(e.Alerts()) != 1 {
		t.Fatalf("resolved alert dropped inside its retention: %+v", e.Alerts())
	}
	e.Evaluate(Input{Now: base.Add(11 * time.Minute), Nodes: []NodeInput{liveNode("b1", base.Add(11*time.Minute))}})
	if len(e.Alerts()) != 0 {
		t.Fatalf("resolved alert survived its retention: %+v", e.Alerts())
	}
}

func TestFiringGauges(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(at1s, Config{Registry: reg})
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	e.Evaluate(Input{Now: base.Add(10 * time.Second), Nodes: []NodeInput{{Name: "b1", LastSeen: base}}})

	val, found := firingGauge(reg, "b1")
	if !found || val != 1 {
		t.Fatalf("narada_alerts_firing{deadman,b1} = %v found=%v, want 1", val, found)
	}
	e.Evaluate(Input{Now: base.Add(11 * time.Second), Nodes: []NodeInput{liveNode("b1", base.Add(11*time.Second))}})
	e.Evaluate(Input{Now: base.Add(20 * time.Second), Nodes: []NodeInput{liveNode("b1", base.Add(20*time.Second))}})
	if val, _ := firingGauge(reg, "b1"); val != 0 {
		t.Fatalf("gauge = %v after resolve, want 0", val)
	}
}

func firingGauge(reg *obs.Registry, node string) (float64, bool) {
	for _, f := range reg.ExportSnapshot() {
		if f.Name != "narada_alerts_firing" {
			continue
		}
		for _, s := range f.Series {
			match := false
			for _, l := range s.Labels {
				if l.Key == "node" && l.Value == node {
					match = true
				}
			}
			if match {
				return s.Gauge, true
			}
		}
	}
	return 0, false
}

func TestFlushPublishesFiring(t *testing.T) {
	sink := &captureSink{}
	e := New(at1s, Config{})
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	e.Evaluate(Input{Now: base.Add(10 * time.Second), Nodes: []NodeInput{
		{Name: "b1", LastSeen: base}, {Name: "b2", LastSeen: base}}})

	// Attach the sink only now: Flush must still deliver the firing set.
	e.cfg.Sinks = []Sink{sink}
	e.Flush()
	got := sink.alerts()
	if len(got) != 2 || got[0].Node != "b1" || got[1].Node != "b2" {
		t.Fatalf("flush delivered %+v, want b1 and b2 firing", got)
	}
}

func TestWebhookSink(t *testing.T) {
	var mu sync.Mutex
	var seen []Alert
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var a Alert
		if err := json.NewDecoder(r.Body).Decode(&a); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		seen = append(seen, a)
		mu.Unlock()
	}))
	defer srv.Close()

	s := NewWebhookSink(srv.URL, time.Second, nil)
	s.Publish(Alert{Rule: RuleDeadman, Node: "b1", State: StateFiring})
	if s.Delivered() != 1 || s.Failed() != 0 {
		t.Fatalf("delivered=%d failed=%d", s.Delivered(), s.Failed())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0].Node != "b1" || seen[0].State != StateFiring {
		t.Fatalf("webhook saw %+v", seen)
	}
}

func TestWebhookSinkFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusBadGateway)
	}))
	s := NewWebhookSink(srv.URL, time.Second, nil)
	s.sleep = func(time.Duration) {}
	s.Publish(Alert{Rule: RuleDeadman, Node: "b1", State: StateFiring})
	srv.Close()
	s.Publish(Alert{Rule: RuleDeadman, Node: "b1", State: StateResolved}) // connection refused
	// Both failures are transient, so each publish attempts twice.
	if s.Delivered() != 0 || s.Failed() != 4 || s.Retried() != 2 {
		t.Fatalf("delivered=%d failed=%d retried=%d, want 0/4/2",
			s.Delivered(), s.Failed(), s.Retried())
	}
}

// TestWebhookSinkRetryRecovers asserts a single transient 5xx is ridden out
// by the one-shot retry, while a 4xx rejection is terminal (re-posting a
// payload the receiver refused cannot help).
func TestWebhookSinkRetryRecovers(t *testing.T) {
	var calls atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
		}
	}))
	defer srv.Close()
	s := NewWebhookSink(srv.URL, time.Second, nil)
	s.sleep = func(time.Duration) {}
	s.Publish(Alert{Rule: RuleDeadman, Node: "b1", State: StateFiring})
	if s.Delivered() != 1 || s.Retried() != 1 || calls.Load() != 2 {
		t.Fatalf("delivered=%d retried=%d calls=%d, want 1/1/2",
			s.Delivered(), s.Retried(), calls.Load())
	}

	rejects := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "bad payload", http.StatusUnprocessableEntity)
	}))
	defer rejects.Close()
	r := NewWebhookSink(rejects.URL, time.Second, nil)
	r.sleep = func(d time.Duration) { t.Fatalf("4xx must not be retried (slept %s)", d) }
	r.Publish(Alert{Rule: RuleDeadman, Node: "b1", State: StateFiring})
	if r.Failed() != 1 || r.Retried() != 0 {
		t.Fatalf("failed=%d retried=%d, want 1/0", r.Failed(), r.Retried())
	}
}

// TestDeliveryLatencyBurnRule drives the delivery-latency SLI through fire
// and resolve: both burn windows must exceed their thresholds to fire, and a
// recovered SLI must stay clear for the resolve hold before resolving.
func TestDeliveryLatencyBurnRule(t *testing.T) {
	e := New(at1s, Config{})
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

	// A node without the delivery histogram (HasDelivery false) never
	// evaluates, no matter what the fields say.
	e.Evaluate(Input{Now: base, Nodes: []NodeInput{{
		Name: "r1", LastSeen: base,
		DeliveryFastSlow: 100, DeliveryFastTotal: 100,
		DeliverySlowSlow: 100, DeliverySlowTotal: 100}}})
	if len(e.Alerts()) != 0 {
		t.Fatalf("node without delivery SLI raised %+v", e.Alerts())
	}

	// Fast window burning alone (slow window healthy): a blip, not an alert.
	e.Evaluate(Input{Now: base, Nodes: []NodeInput{{
		Name: "b1", LastSeen: base, HasDelivery: true,
		DeliveryFastSlow: 30, DeliveryFastTotal: 100, // 30% slow => 30x budget
		DeliverySlowSlow: 1, DeliverySlowTotal: 1000}}})
	if e.Firing() != 0 {
		t.Fatalf("fast-window blip fired: %+v", e.Alerts())
	}

	// Both windows burning: fires.
	e.Evaluate(Input{Now: base.Add(time.Second), Nodes: []NodeInput{{
		Name: "b1", LastSeen: base.Add(time.Second), HasDelivery: true,
		DeliveryFastSlow: 30, DeliveryFastTotal: 100, // 30x
		DeliverySlowSlow: 100, DeliverySlowTotal: 1000}}}) // 10x
	firing := map[string]bool{}
	for _, a := range e.Alerts() {
		if a.State == StateFiring {
			firing[a.Rule] = true
		}
	}
	if !firing[RuleDeliveryLatencyBurn] {
		t.Fatalf("both windows burning, firing = %v", firing)
	}

	// Healthy again: clears only after 3s of continuous calm.
	healthy := func(at time.Time) Input {
		return Input{Now: at, Nodes: []NodeInput{{
			Name: "b1", LastSeen: at, HasDelivery: true,
			DeliveryFastSlow: 0, DeliveryFastTotal: 100,
			DeliverySlowSlow: 0, DeliverySlowTotal: 1000}}}
	}
	e.Evaluate(healthy(base.Add(2 * time.Second)))
	if e.Firing() != 1 {
		t.Fatal("delivery burn resolved without hysteresis")
	}
	e.Evaluate(healthy(base.Add(5 * time.Second)))
	if e.Firing() != 0 {
		t.Fatalf("delivery burn never resolved: %+v", e.Alerts())
	}
}

// TestDropRatioRule drives the egress drop-ratio rule through its guards:
// no evaluation without the SLI, no fire below the volume floor, fire above
// ratio+volume, resolve on healthy volume.
func TestDropRatioRule(t *testing.T) {
	e := New(at1s, Config{}) // ratio max 0.01 over at least 100 deliveries
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

	// No SLI (HasDropRatio false): silent even at ratio 1.0.
	e.Evaluate(Input{Now: base, Nodes: []NodeInput{{
		Name: "r1", LastSeen: base, DropRatio: 1, DropVolume: 1e6}}})
	if len(e.Alerts()) != 0 {
		t.Fatalf("node without drop SLI raised %+v", e.Alerts())
	}

	// Bad ratio but volume below the floor: an idle broker dropping its
	// only frame must not page anyone.
	e.Evaluate(Input{Now: base, Nodes: []NodeInput{{
		Name: "b1", LastSeen: base, HasDropRatio: true, DropRatio: 0.5, DropVolume: 10}}})
	if e.Firing() != 0 {
		t.Fatalf("low-volume ratio fired: %+v", e.Alerts())
	}

	// Volume over, ratio just under: quiet.
	e.Evaluate(Input{Now: base, Nodes: []NodeInput{{
		Name: "b1", LastSeen: base, HasDropRatio: true, DropRatio: 0.009, DropVolume: 4000}}})
	if e.Firing() != 0 {
		t.Fatalf("ratio under the bound fired: %+v", e.Alerts())
	}

	// Volume and ratio both over: fires, carrying the ratio as the value.
	e.Evaluate(Input{Now: base.Add(time.Second), Nodes: []NodeInput{{
		Name: "b1", LastSeen: base.Add(time.Second), HasDropRatio: true,
		DropRatio: 0.25, DropVolume: 4000}}})
	if e.Firing() != 1 {
		t.Fatalf("drop storm did not fire: %+v", e.Alerts())
	}
	var fired Alert
	for _, a := range e.Alerts() {
		if a.Rule == RuleDropRatio {
			fired = a
		}
	}
	if fired.State != StateFiring || fired.Value != 0.25 || fired.Threshold != 0.01 {
		t.Fatalf("drop_ratio alert = %+v", fired)
	}

	// Healthy delivery volume with a clean ratio: resolves after the
	// hysteresis window.
	healthy := func(at time.Time) Input {
		return Input{Now: at, Nodes: []NodeInput{{
			Name: "b1", LastSeen: at, HasDropRatio: true, DropRatio: 0.001, DropVolume: 4000}}}
	}
	e.Evaluate(healthy(base.Add(2 * time.Second)))
	if e.Firing() != 1 {
		t.Fatal("drop_ratio resolved without hysteresis")
	}
	e.Evaluate(healthy(base.Add(5 * time.Second)))
	if e.Firing() != 0 {
		t.Fatalf("drop_ratio never resolved: %+v", e.Alerts())
	}
	for _, a := range e.Alerts() {
		if a.Rule == RuleDropRatio && (a.State != StateResolved || a.ResolvedAt == nil) {
			t.Fatalf("resolved alert malformed: %+v", a)
		}
	}
}
