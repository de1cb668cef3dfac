// Package health is the fabric health engine's rule evaluator and alert
// state machine. The collector feeds it one Input per evaluation tick —
// per-node liveness, clock offsets and windowed rates derived from the
// series store — and the engine turns rule violations into deduplicated
// alerts with a firing → resolved lifecycle, published to pluggable sinks
// and exposed as narada_alerts_firing gauges.
//
// The engine is deliberately decoupled from the collector: it sees only the
// Input snapshot, so every rule is unit-testable with hand-built inputs and
// a deterministic clock.
package health

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"narada/internal/obs"
)

// Rule names, used for dedup keys, sink payloads and alert gauge labels.
const (
	RuleDeadman          = "deadman"
	RuleClockDrift       = "clock_drift"
	RuleEgressSaturation = "egress_saturation"
	RuleEgressDrops      = "egress_drops"
	RuleProbeSLOBurn     = "probe_slo_burn"
	RuleProbeLatencyBurn = "probe_latency_burn"
	RuleLinkFlapping     = "link_flapping"
	// RuleDeliveryLatencyBurn fires when a broker's end-to-end delivery
	// latency (publish timestamp → egress flush) burns its SLO budget on
	// both burn windows — the message-path analogue of the probe rules.
	RuleDeliveryLatencyBurn = "delivery_latency_burn"
	// RuleDropRatio fires when the fraction of a broker's egress traffic
	// being dropped (any reason) exceeds the tolerated ratio, with a
	// minimum-volume guard so an idle broker's single drop cannot alert.
	RuleDropRatio = "drop_ratio"
	// RuleGoroutineLeak fires when a node's goroutine count has grown both
	// absolutely and relatively over the observation window — the flight
	// recorder's goroutine-profile diff then names the leaking site.
	RuleGoroutineLeak = "goroutine_leak"
	// RuleGCBurn fires when a node's garbage collector has been consuming
	// an excessive fraction of CPU over the window: allocation pressure
	// stealing cycles from message routing.
	RuleGCBurn = "gc_burn"
)

// Alert states. A violation fires at once and resolves once its condition
// has stayed clear for Windows.Resolve.
const (
	StateFiring   = "firing"
	StateResolved = "resolved"
)

// Alert is one rule violation for one node, deduplicated by (rule, node):
// re-evaluating an already-known violation updates the existing alert rather
// than raising a new one.
type Alert struct {
	Rule       string     `json:"rule"`
	Node       string     `json:"node"`
	State      string     `json:"state"`
	Message    string     `json:"message"`
	Value      float64    `json:"value"`
	Threshold  float64    `json:"threshold"`
	Since      time.Time  `json:"since"` // when this firing cycle began (= FiredAt)
	FiredAt    *time.Time `json:"firedAt,omitempty"`
	ResolvedAt *time.Time `json:"resolvedAt,omitempty"`
}

// Sink receives alert lifecycle transitions (firing and resolved). Publish
// must tolerate being called from the evaluation tick — keep it fast or
// buffer internally.
type Sink interface {
	Publish(Alert)
}

// Rule thresholds and objectives. Each is fixed; only the windows they are
// measured over follow the scrape interval (Windows).
const (
	// clockEnvelope bounds a node's clock offset estimate: the paper's NTP
	// scheme keeps nodes within 1-20 ms, so an offset beyond ±20 ms silently
	// corrupts one-way latency estimates.
	clockEnvelope = 20 * time.Millisecond
	// egressDepthMax is the egress queue depth (summed across links) above
	// which a broker counts as saturated — the per-connection data queue
	// bound.
	egressDepthMax = 512.0
	// egressDropRateMax is the tolerated egress drop rate, events/second
	// over the egress window.
	egressDropRateMax = 1.0
	// flapRateMax is the tolerated supervised-reconnect rate, reconnects/
	// second over the flap window (15 relinks in 5 minutes). A steady-state
	// fabric reconnects rarely; a link cycling faster than this is flapping —
	// a path or peer problem the supervision layer is papering over.
	flapRateMax = 0.05
	// sloTarget is every SLO's objective: the fraction of probes that must
	// succeed, of probes that must beat ProbeLatencySLO and of deliveries
	// that must beat DeliveryLatencySLO.
	sloTarget = 0.99
	// ProbeLatencySLO is the probe latency objective: slower probes consume
	// latency error budget.
	ProbeLatencySLO = time.Second
	// DeliveryLatencySLO is the end-to-end delivery latency objective. LAN
	// fabrics deliver in microseconds; a sustained breach means queueing.
	DeliveryLatencySLO = 100 * time.Millisecond
	// dropRatioMax is the tolerated dropped/(delivered+dropped) ratio over
	// the egress window, evaluated only once that window carries
	// dropMinVolume deliveries: ratios over tiny denominators are noise, not
	// outages.
	dropRatioMax, dropMinVolume = 0.01, 100.0
	// fastBurnMax / slowBurnMax are the burn-rate thresholds: an SLO alert
	// fires when BOTH windows burn error budget faster than their bound
	// (the SRE-workbook page thresholds).
	fastBurnMax, slowBurnMax = 14.4, 6.0
	// goroutineLeakGrowth is the absolute goroutine growth (last − min over
	// the window) above which the leak rule may fire.
	goroutineLeakGrowth = 500.0
	// goroutineLeakRatio is the relative guard: last/min must also exceed
	// this so a large node's normal churn cannot alert on an absolute delta
	// that is small relative to its baseline.
	goroutineLeakRatio = 1.5
	// gcBurnMax is the tolerated average GC CPU fraction.
	gcBurnMax = 0.25
)

// Windows are the engine's rule windows and holds. Each is a fixed count of
// scrape intervals, so the collector's scrape interval is its only clock;
// the comments give each count and its value at the default 1 s interval.
type Windows struct {
	Scrape        time.Duration // 1: one rule evaluation per scrape
	Deadman       time.Duration // 3: silence before a node is declared vanished
	Resolve       time.Duration // 3: how long a firing condition stays clear before it resolves
	Retain        time.Duration // 600 (10 min): how long a resolved alert stays listed
	Egress        time.Duration // 60 (1 min): egress drop rate and drop ratio
	Flap          time.Duration // 300 (5 min): supervised link reconnect rate
	FastBurn      time.Duration // 300 (5 min): the fast SLO burn window
	SlowBurn      time.Duration // 3 600 (1 h): the slow SLO burn window
	GoroutineLeak time.Duration // 300 (5 min): the goroutine growth trend
	GCBurn        time.Duration // 120 (2 min): the average GC CPU fraction
}

// WindowsAt returns the windows at scrape interval d.
func WindowsAt(d time.Duration) Windows {
	return Windows{
		Scrape: d, Deadman: 3 * d, Resolve: 3 * d, Retain: 600 * d,
		Egress: 60 * d, Flap: 300 * d, FastBurn: 300 * d, SlowBurn: 3600 * d,
		GoroutineLeak: 300 * d, GCBurn: 120 * d,
	}
}

// Config wires the engine to its outputs.
type Config struct {
	// Sinks receive firing and resolved transitions.
	Sinks []Sink
	// Registry, when set, carries narada_alerts_firing{rule,node} gauges.
	Registry *obs.Registry
	// Journal, when set, records alert lifecycle transitions
	// (alert_firing/alert_resolved) for the fabric timeline; the collector
	// wires its own journal here so alert events sit beside the link and
	// advertisement events that explain them.
	Journal *obs.Journal
	// Logger receives evaluation diagnostics; nil discards them.
	Logger *slog.Logger
}

// NodeInput is one node's health snapshot for an evaluation tick, assembled
// by the collector from ingest state and the series store.
type NodeInput struct {
	Name        string
	LastSeen    time.Time     // collector wall clock of the last successful scrape
	ClockOffset time.Duration // node's own NTP offset estimate

	EgressDepth    float64 // current egress queue depth (summed over links)
	HasEgress      bool    // node exports egress gauges (i.e. is a broker)
	EgressDropRate float64 // drops/second over Windows.Egress

	LinkFlapRate float64 // supervised reconnects/second over Windows.Flap
	HasFlaps     bool    // node exports supervision reconnect counters

	// Delivery SLIs, derived from narada_delivery_latency_seconds: total
	// deliveries and deliveries slower than DeliveryLatencySLO, over
	// the fast and slow burn windows.
	HasDelivery                         bool
	DeliveryFastTotal, DeliveryFastSlow float64
	DeliverySlowTotal, DeliverySlowSlow float64

	// Drop ratio: dropped/(delivered+dropped) over Windows.Egress, and
	// the denominator volume for the minimum-volume guard.
	HasDropRatio bool
	DropRatio    float64
	DropVolume   float64

	// Runtime telemetry, derived from the RuntimeSampler families: the
	// goroutine gauge's minimum and latest values over
	// Windows.GoroutineLeak, and the average GC CPU fraction over
	// Windows.GCBurn.
	HasGoroutines                 bool
	GoroutinesMin, GoroutinesLast float64
	HasGCCPU                      bool
	GCCPUFraction                 float64
}

// ProbeInput is one probe source's windowed SLI snapshot: success and
// latency error counts over the fast and slow burn windows.
type ProbeInput struct {
	Node                string
	FastOK, FastErr     float64
	SlowOK, SlowErr     float64
	FastSlow, FastTotal float64 // latency SLI: slow-vs-total in fast window
	SlowSlow, SlowTotal float64
}

// Input is one evaluation tick's complete view of the fabric.
type Input struct {
	Now    time.Time
	Nodes  []NodeInput
	Probes []ProbeInput
}

// alertState is the retained per-(rule,node) lifecycle state.
type alertState struct {
	Alert
	clearSince time.Time // when the condition was last seen clear (firing only)
	gauge      *obs.Gauge
}

// Engine evaluates the rule set against successive Inputs and runs the alert
// state machine. Safe for concurrent use.
type Engine struct {
	win Windows
	cfg Config

	mu     sync.Mutex
	alerts map[string]*alertState

	evals       *obs.Counter
	transitions *obs.Counter
}

// New assembles an engine measuring its rules over w.
func New(w Windows, cfg Config) *Engine {
	if cfg.Logger == nil {
		cfg.Logger = obs.Nop()
	}
	e := &Engine{win: w, cfg: cfg, alerts: make(map[string]*alertState)}
	if cfg.Registry != nil {
		who := obs.L("node", "obscollect")
		e.evals = cfg.Registry.Counter("narada_health_evaluations_total",
			"Health rule evaluation ticks.", who)
		e.transitions = cfg.Registry.Counter("narada_health_transitions_total",
			"Alert state transitions (to firing or resolved).", who)
	}
	return e
}

// Evaluate runs every rule against one input snapshot and advances the alert
// state machine.
func (e *Engine) Evaluate(in Input) {
	if e.evals != nil {
		e.evals.Inc()
	}
	now, w := in.Now, e.win
	for _, n := range in.Nodes {
		silent := now.Sub(n.LastSeen)
		e.apply(RuleDeadman, n.Name, silent > w.Deadman,
			silent.Seconds(), w.Deadman.Seconds(),
			fmt.Sprintf("no successful scrape for %s (deadman after %s at a %s scrape interval)",
				silent.Round(time.Millisecond), w.Deadman, w.Scrape), now)

		off := n.ClockOffset
		if off < 0 {
			off = -off
		}
		// A vanished node's last reported offset is stale, not drifting.
		driftActive := silent <= w.Deadman && off > clockEnvelope
		e.apply(RuleClockDrift, n.Name, driftActive,
			n.ClockOffset.Seconds(), clockEnvelope.Seconds(),
			fmt.Sprintf("clock offset %s outside the ±%s NTP envelope: one-way latency estimates are suspect",
				n.ClockOffset.Round(time.Millisecond), clockEnvelope), now)

		if n.HasEgress {
			e.apply(RuleEgressSaturation, n.Name, n.EgressDepth > egressDepthMax,
				n.EgressDepth, egressDepthMax,
				fmt.Sprintf("egress queue depth %.0f above %.0f: broker saturated, data frames at risk",
					n.EgressDepth, egressDepthMax), now)
			e.apply(RuleEgressDrops, n.Name, n.EgressDropRate > egressDropRateMax,
				n.EgressDropRate, egressDropRateMax,
				fmt.Sprintf("egress dropping %.2f events/s over %s (max %.2f/s)",
					n.EgressDropRate, w.Egress, egressDropRateMax), now)
		}
		if n.HasFlaps {
			e.apply(RuleLinkFlapping, n.Name, n.LinkFlapRate > flapRateMax,
				n.LinkFlapRate, flapRateMax,
				fmt.Sprintf("supervised links reconnecting %.3f/s over %s (max %.3f/s): link or peer flapping",
					n.LinkFlapRate, w.Flap, flapRateMax), now)
		}
		if n.HasDelivery {
			fastBurn := burnRate(n.DeliveryFastSlow, n.DeliveryFastTotal)
			slowBurn := burnRate(n.DeliverySlowSlow, n.DeliverySlowTotal)
			e.apply(RuleDeliveryLatencyBurn, n.Name,
				fastBurn >= fastBurnMax && slowBurn >= slowBurnMax,
				fastBurn, fastBurnMax,
				fmt.Sprintf("delivery latency SLO (p<%s) burning %.1fx budget over %s and %.1fx over %s (SLO %.2f%%)",
					DeliveryLatencySLO, fastBurn, w.FastBurn, slowBurn, w.SlowBurn, sloTarget*100), now)
		}
		if n.HasDropRatio {
			active := n.DropVolume >= dropMinVolume && n.DropRatio > dropRatioMax
			e.apply(RuleDropRatio, n.Name, active,
				n.DropRatio, dropRatioMax,
				fmt.Sprintf("dropping %.1f%% of egress traffic over %s (max %.1f%%, volume %.0f)",
					n.DropRatio*100, w.Egress, dropRatioMax*100, n.DropVolume), now)
		}
		if n.HasGoroutines {
			growth := n.GoroutinesLast - n.GoroutinesMin
			ratio := 0.0
			if n.GoroutinesMin > 0 {
				ratio = n.GoroutinesLast / n.GoroutinesMin
			}
			active := growth > goroutineLeakGrowth && ratio > goroutineLeakRatio
			e.apply(RuleGoroutineLeak, n.Name, active,
				growth, goroutineLeakGrowth,
				fmt.Sprintf("goroutines grew by %.0f (%.0f → %.0f, %.2fx) over %s: likely leak — diff the flight-recorded goroutine profiles",
					growth, n.GoroutinesMin, n.GoroutinesLast, ratio, w.GoroutineLeak), now)
		}
		if n.HasGCCPU {
			e.apply(RuleGCBurn, n.Name, n.GCCPUFraction > gcBurnMax,
				n.GCCPUFraction, gcBurnMax,
				fmt.Sprintf("GC consumed %.0f%% of CPU over %s (max %.0f%%): allocation pressure is stealing cycles from routing — check the flight-recorded profiles",
					n.GCCPUFraction*100, w.GCBurn, gcBurnMax*100), now)
		}
	}

	for _, p := range in.Probes {
		fastBurn := burnRate(p.FastErr, p.FastOK+p.FastErr)
		slowBurn := burnRate(p.SlowErr, p.SlowOK+p.SlowErr)
		e.apply(RuleProbeSLOBurn, p.Node,
			fastBurn >= fastBurnMax && slowBurn >= slowBurnMax,
			fastBurn, fastBurnMax,
			fmt.Sprintf("probe success SLO burning %.1fx budget over %s and %.1fx over %s (SLO %.2f%%)",
				fastBurn, w.FastBurn, slowBurn, w.SlowBurn, sloTarget*100), now)

		fastLatBurn := burnRate(p.FastSlow, p.FastTotal)
		slowLatBurn := burnRate(p.SlowSlow, p.SlowTotal)
		e.apply(RuleProbeLatencyBurn, p.Node,
			fastLatBurn >= fastBurnMax && slowLatBurn >= slowBurnMax,
			fastLatBurn, fastBurnMax,
			fmt.Sprintf("probe latency SLO (p<%s) burning %.1fx budget over %s and %.1fx over %s",
				ProbeLatencySLO, fastLatBurn, w.FastBurn, slowLatBurn, w.SlowBurn), now)
	}

	e.gc(now)
}

// burnRate is errors/total divided by the error budget (1 − sloTarget); zero
// totals burn nothing (no data is not an outage).
func burnRate(errs, total float64) float64 {
	if total <= 0 {
		return 0
	}
	return (errs / total) / (1 - sloTarget)
}

// apply advances one (rule, node) through the state machine given whether
// its condition is currently violated.
func (e *Engine) apply(rule, node string, active bool, value, threshold float64, msg string, now time.Time) {
	key := rule + "\xff" + node
	e.mu.Lock()
	st := e.alerts[key]

	if st == nil {
		if !active {
			e.mu.Unlock()
			return
		}
		st = &alertState{Alert: Alert{Rule: rule, Node: node}}
		if e.cfg.Registry != nil {
			st.gauge = e.cfg.Registry.Gauge("narada_alerts_firing",
				"Health alerts currently firing, by rule and node.",
				obs.L("rule", rule), obs.L("node", node))
		}
		e.alerts[key] = st
	}
	st.Value, st.Threshold, st.Message = value, threshold, msg

	var changed *Alert
	switch {
	case active && st.State != StateFiring:
		// A new violation fires at once; one after a resolve re-arms the
		// same alert entry (dedup by key).
		at := now
		st.State, st.Since, st.FiredAt = StateFiring, now, &at
		st.ResolvedAt, st.clearSince = nil, time.Time{}
		if st.gauge != nil {
			st.gauge.Set(1)
		}
		a := st.Alert
		changed = &a
	case active:
		st.clearSince = time.Time{}
	case st.State == StateFiring:
		if st.clearSince.IsZero() {
			st.clearSince = now
		}
		if now.Sub(st.clearSince) >= e.win.Resolve {
			st.State = StateResolved
			at := now
			st.ResolvedAt = &at
			if st.gauge != nil {
				st.gauge.Set(0)
			}
			a := st.Alert
			changed = &a
		}
	}
	e.mu.Unlock()

	if changed != nil {
		e.publish(*changed)
	}
}

func (e *Engine) publish(a Alert) {
	if e.transitions != nil {
		e.transitions.Inc()
	}
	e.cfg.Logger.Info("alert transition", "rule", a.Rule, "node", a.Node,
		"state", a.State, "value", a.Value, "threshold", a.Threshold, "msg", a.Message)
	switch a.State {
	case StateFiring:
		e.cfg.Journal.Emit(obs.EventAlertFiring, a.Node, a.Rule)
	case StateResolved:
		e.cfg.Journal.Emit(obs.EventAlertResolved, a.Node, a.Rule)
	}
	for _, s := range e.cfg.Sinks {
		s.Publish(a)
	}
}

// gc drops resolved alerts past their retention.
func (e *Engine) gc(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for key, st := range e.alerts {
		if st.State == StateResolved && st.ResolvedAt != nil &&
			now.Sub(*st.ResolvedAt) > e.win.Retain {
			delete(e.alerts, key)
		}
	}
}

// stateRank orders /alerts output: firing first, then resolved.
func stateRank(s string) int {
	if s == StateFiring {
		return 0
	}
	return 1
}

// Alerts returns every retained alert, firing first, then by rule and node.
func (e *Engine) Alerts() []Alert {
	e.mu.Lock()
	out := make([]Alert, 0, len(e.alerts))
	for _, st := range e.alerts {
		out = append(out, st.Alert)
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if r := stateRank(out[i].State) - stateRank(out[j].State); r != 0 {
			return r < 0
		}
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// Firing returns the number of alerts currently firing.
func (e *Engine) Firing() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, st := range e.alerts {
		if st.State == StateFiring {
			n++
		}
	}
	return n
}

// Flush publishes every currently-firing alert to the sinks, in Alerts'
// order — called on collector shutdown so in-flight incidents are not lost
// with the process.
func (e *Engine) Flush() {
	for _, a := range e.Alerts() {
		if a.State != StateFiring {
			break // firing sorts first
		}
		for _, s := range e.cfg.Sinks {
			s.Publish(a)
		}
	}
}
