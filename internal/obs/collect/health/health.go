// Package health is the fabric health engine's rule evaluator and alert
// state machine. The collector feeds it one Input per evaluation tick —
// per-node liveness, clock offsets and windowed rates derived from the
// series store — and the engine turns rule violations into deduplicated
// alerts with a pending → firing → resolved lifecycle, published to
// pluggable sinks and exposed as narada_alerts_firing gauges.
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

// Alert states.
const (
	StatePending  = "pending"
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
	Since      time.Time  `json:"since"` // condition first observed (this cycle)
	FiredAt    *time.Time `json:"firedAt,omitempty"`
	ResolvedAt *time.Time `json:"resolvedAt,omitempty"`
}

// Sink receives alert lifecycle transitions (firing and resolved; pending
// transitions are internal). Publish must tolerate being called from the
// evaluation tick — keep it fast or buffer internally.
type Sink interface {
	Publish(Alert)
}

// Rule thresholds nothing has ever configured.
const (
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
	// GCBurnWindow is the averaging window for the GC CPU fraction.
	GCBurnWindow = 2 * time.Minute
	// gcBurnMax is the tolerated average GC CPU fraction.
	gcBurnMax = 0.25
)

// Config parameterises the engine. Zero values fall back to the documented
// defaults.
type Config struct {
	// ScrapeInterval is how often the collector scrapes every node — the
	// deadman rule's unit of silence (default 1s).
	ScrapeInterval time.Duration
	// DeadmanIntervals is how many scrape intervals may pass without a
	// successful scrape of a node before it is declared vanished (default 3).
	DeadmanIntervals int
	// ClockEnvelope bounds a node's acceptable clock offset estimate; the
	// paper's NTP scheme keeps nodes within 1-20 ms, so an offset beyond
	// ±20 ms (the default) silently corrupts one-way latency estimates.
	ClockEnvelope time.Duration
	// EgressDepthMax is the egress queue depth (summed across links) above
	// which a broker counts as saturated (default 512 — the default
	// per-connection data queue bound).
	EgressDepthMax float64
	// EgressDropRateMax is the tolerated egress drop rate in events/second
	// over EgressWindow (default 1/s).
	EgressDropRateMax float64
	// EgressWindow is the averaging window for the drop rate (default 1m).
	EgressWindow time.Duration
	// FlapWindow is the averaging window for supervised link reconnects
	// (default 5m).
	FlapWindow time.Duration
	// FlapRateMax is the tolerated supervised-reconnect rate in
	// reconnects/second over FlapWindow (default 0.05/s, i.e. 15 relinks in
	// 5 minutes). A steady-state fabric reconnects rarely; a link cycling
	// up and down faster than this is flapping — a path or peer problem the
	// supervision layer is papering over.
	FlapRateMax float64

	// SLOTarget is the probe success-rate objective (default 0.99).
	SLOTarget float64
	// LatencySLO is the probe latency objective: probes slower than this
	// consume latency error budget (default 1s).
	LatencySLO time.Duration
	// FastWindow / SlowWindow are the multi-window burn-rate windows
	// (defaults 5m / 1h).
	FastWindow, SlowWindow time.Duration

	// DeliverySLOTarget is the delivery-latency objective ratio: the fraction
	// of delivered messages that must beat DeliveryLatencySLO (default 0.99).
	DeliverySLOTarget float64
	// DeliveryLatencySLO is the end-to-end delivery latency objective:
	// deliveries slower than this consume error budget (default 100ms — LAN
	// fabrics deliver in microseconds; a sustained breach means queueing).
	DeliveryLatencySLO time.Duration
	// DropRatioMax is the tolerated dropped/(delivered+dropped) ratio over
	// EgressWindow (default 0.01).
	DropRatioMax float64
	// DropMinVolume is the minimum delivered+dropped volume over EgressWindow
	// before the drop-ratio rule evaluates (default 100): ratios over tiny
	// denominators are noise, not outages.
	DropMinVolume float64

	// GoroutineLeakWindow is the trend window of the goroutine-leak rule
	// (default 5m — the finest series-store tier's full span).
	GoroutineLeakWindow time.Duration

	// PendingFor is the hysteresis before a violated rule fires (default 0:
	// fire on first evaluation — deadman detection latency matters more
	// than flap suppression at fabric scale; raise it for noisy fabrics).
	PendingFor time.Duration
	// ResolveAfter is how long a condition must stay clear before a firing
	// alert resolves (default 3 × ScrapeInterval).
	ResolveAfter time.Duration
	// RetainResolved keeps resolved alerts visible on /alerts (default 10m).
	RetainResolved time.Duration

	// Sinks receive firing and resolved transitions.
	Sinks []Sink
	// Registry, when set, carries narada_alerts_firing{rule,node} gauges.
	Registry *obs.Registry
	// Journal, when set, records alert lifecycle transitions
	// (alert_pending/alert_firing/alert_resolved) for the fabric timeline;
	// the collector wires its own journal here so alert events sit beside
	// the link and advertisement events that explain them.
	Journal *obs.Journal
	// Logger receives evaluation diagnostics; nil discards them.
	Logger *slog.Logger
}

func (c *Config) fillDefaults() {
	if c.ScrapeInterval <= 0 {
		c.ScrapeInterval = time.Second
	}
	if c.DeadmanIntervals <= 0 {
		c.DeadmanIntervals = 3
	}
	if c.ClockEnvelope <= 0 {
		c.ClockEnvelope = 20 * time.Millisecond
	}
	if c.EgressDepthMax <= 0 {
		c.EgressDepthMax = 512
	}
	if c.EgressDropRateMax <= 0 {
		c.EgressDropRateMax = 1
	}
	if c.EgressWindow <= 0 {
		c.EgressWindow = time.Minute
	}
	if c.FlapWindow <= 0 {
		c.FlapWindow = 5 * time.Minute
	}
	if c.FlapRateMax <= 0 {
		c.FlapRateMax = 0.05
	}
	if c.SLOTarget <= 0 || c.SLOTarget >= 1 {
		c.SLOTarget = 0.99
	}
	if c.LatencySLO <= 0 {
		c.LatencySLO = time.Second
	}
	if c.FastWindow <= 0 {
		c.FastWindow = 5 * time.Minute
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = time.Hour
	}
	if c.DeliverySLOTarget <= 0 || c.DeliverySLOTarget >= 1 {
		c.DeliverySLOTarget = 0.99
	}
	if c.DeliveryLatencySLO <= 0 {
		c.DeliveryLatencySLO = 100 * time.Millisecond
	}
	if c.DropRatioMax <= 0 {
		c.DropRatioMax = 0.01
	}
	if c.DropMinVolume <= 0 {
		c.DropMinVolume = 100
	}
	if c.GoroutineLeakWindow <= 0 {
		c.GoroutineLeakWindow = 5 * time.Minute
	}
	if c.ResolveAfter <= 0 {
		c.ResolveAfter = 3 * c.ScrapeInterval
	}
	if c.RetainResolved <= 0 {
		c.RetainResolved = 10 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = obs.Nop()
	}
}

// NodeInput is one node's health snapshot for an evaluation tick, assembled
// by the collector from ingest state and the series store.
type NodeInput struct {
	Name        string
	LastSeen    time.Time     // collector wall clock of the last successful scrape
	ClockOffset time.Duration // node's own NTP offset estimate

	EgressDepth    float64 // current egress queue depth (summed over links)
	HasEgress      bool    // node exports egress gauges (i.e. is a broker)
	EgressDropRate float64 // drops/second over Config.EgressWindow

	LinkFlapRate float64 // supervised reconnects/second over Config.FlapWindow
	HasFlaps     bool    // node exports supervision reconnect counters

	// Delivery SLIs, derived from narada_delivery_latency_seconds: total
	// deliveries and deliveries slower than Config.DeliveryLatencySLO, over
	// the fast and slow burn windows.
	HasDelivery                         bool
	DeliveryFastTotal, DeliveryFastSlow float64
	DeliverySlowTotal, DeliverySlowSlow float64

	// Drop ratio: dropped/(delivered+dropped) over Config.EgressWindow, and
	// the denominator volume for the minimum-volume guard.
	HasDropRatio bool
	DropRatio    float64
	DropVolume   float64

	// Runtime telemetry, derived from the RuntimeSampler families: the
	// goroutine gauge's minimum and latest values over
	// Config.GoroutineLeakWindow, and the average GC CPU fraction over
	// GCBurnWindow.
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
	cfg Config

	mu     sync.Mutex
	alerts map[string]*alertState

	evals       *obs.Counter
	transitions *obs.Counter
}

// New assembles an engine.
func New(cfg Config) *Engine {
	cfg.fillDefaults()
	e := &Engine{cfg: cfg, alerts: make(map[string]*alertState)}
	if cfg.Registry != nil {
		who := obs.L("node", "obscollect")
		e.evals = cfg.Registry.Counter("narada_health_evaluations_total",
			"Health rule evaluation ticks.", who)
		e.transitions = cfg.Registry.Counter("narada_health_transitions_total",
			"Alert state transitions (to firing or resolved).", who)
		cfg.Registry.GaugeFunc("narada_alerts_pending",
			"Alerts currently pending.", func() float64 { return float64(e.count(StatePending)) }, who)
	}
	return e
}

// Config returns the effective (default-filled) configuration — the
// collector reads the windows back when assembling Input.
func (e *Engine) Config() Config { return e.cfg }

// Evaluate runs every rule against one input snapshot and advances the alert
// state machine.
func (e *Engine) Evaluate(in Input) {
	if e.evals != nil {
		e.evals.Inc()
	}
	now := in.Now
	deadmanAfter := time.Duration(e.cfg.DeadmanIntervals) * e.cfg.ScrapeInterval
	for _, n := range in.Nodes {
		silent := now.Sub(n.LastSeen)
		e.apply(RuleDeadman, n.Name, silent > deadmanAfter,
			silent.Seconds(), deadmanAfter.Seconds(),
			fmt.Sprintf("no successful scrape for %s (deadman after %s = %d × %s scrape interval)",
				silent.Round(time.Millisecond), deadmanAfter, e.cfg.DeadmanIntervals, e.cfg.ScrapeInterval), now)

		off := n.ClockOffset
		if off < 0 {
			off = -off
		}
		// A vanished node's last reported offset is stale, not drifting.
		driftActive := silent <= deadmanAfter && off > e.cfg.ClockEnvelope
		e.apply(RuleClockDrift, n.Name, driftActive,
			n.ClockOffset.Seconds(), e.cfg.ClockEnvelope.Seconds(),
			fmt.Sprintf("clock offset %s outside the ±%s NTP envelope: one-way latency estimates are suspect",
				n.ClockOffset.Round(time.Millisecond), e.cfg.ClockEnvelope), now)

		if n.HasEgress {
			e.apply(RuleEgressSaturation, n.Name, n.EgressDepth > e.cfg.EgressDepthMax,
				n.EgressDepth, e.cfg.EgressDepthMax,
				fmt.Sprintf("egress queue depth %.0f above %.0f: broker saturated, data frames at risk",
					n.EgressDepth, e.cfg.EgressDepthMax), now)
			e.apply(RuleEgressDrops, n.Name, n.EgressDropRate > e.cfg.EgressDropRateMax,
				n.EgressDropRate, e.cfg.EgressDropRateMax,
				fmt.Sprintf("egress dropping %.2f events/s over %s (max %.2f/s)",
					n.EgressDropRate, e.cfg.EgressWindow, e.cfg.EgressDropRateMax), now)
		}
		if n.HasFlaps {
			e.apply(RuleLinkFlapping, n.Name, n.LinkFlapRate > e.cfg.FlapRateMax,
				n.LinkFlapRate, e.cfg.FlapRateMax,
				fmt.Sprintf("supervised links reconnecting %.3f/s over %s (max %.3f/s): link or peer flapping",
					n.LinkFlapRate, e.cfg.FlapWindow, e.cfg.FlapRateMax), now)
		}
		if n.HasDelivery {
			deliveryBudget := 1 - e.cfg.DeliverySLOTarget
			fastBurn := burnRate(n.DeliveryFastSlow, n.DeliveryFastTotal, deliveryBudget)
			slowBurn := burnRate(n.DeliverySlowSlow, n.DeliverySlowTotal, deliveryBudget)
			e.apply(RuleDeliveryLatencyBurn, n.Name,
				fastBurn >= fastBurnMax && slowBurn >= slowBurnMax,
				fastBurn, fastBurnMax,
				fmt.Sprintf("delivery latency SLO (p<%s) burning %.1fx budget over %s and %.1fx over %s (SLO %.2f%%)",
					e.cfg.DeliveryLatencySLO, fastBurn, e.cfg.FastWindow, slowBurn, e.cfg.SlowWindow,
					e.cfg.DeliverySLOTarget*100), now)
		}
		if n.HasDropRatio {
			active := n.DropVolume >= e.cfg.DropMinVolume && n.DropRatio > e.cfg.DropRatioMax
			e.apply(RuleDropRatio, n.Name, active,
				n.DropRatio, e.cfg.DropRatioMax,
				fmt.Sprintf("dropping %.1f%% of egress traffic over %s (max %.1f%%, volume %.0f)",
					n.DropRatio*100, e.cfg.EgressWindow, e.cfg.DropRatioMax*100, n.DropVolume), now)
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
					growth, n.GoroutinesMin, n.GoroutinesLast, ratio, e.cfg.GoroutineLeakWindow), now)
		}
		if n.HasGCCPU {
			e.apply(RuleGCBurn, n.Name, n.GCCPUFraction > gcBurnMax,
				n.GCCPUFraction, gcBurnMax,
				fmt.Sprintf("GC consumed %.0f%% of CPU over %s (max %.0f%%): allocation pressure is stealing cycles from routing — check the flight-recorded profiles",
					n.GCCPUFraction*100, GCBurnWindow, gcBurnMax*100), now)
		}
	}

	budget := 1 - e.cfg.SLOTarget
	for _, p := range in.Probes {
		fastBurn := burnRate(p.FastErr, p.FastOK+p.FastErr, budget)
		slowBurn := burnRate(p.SlowErr, p.SlowOK+p.SlowErr, budget)
		e.apply(RuleProbeSLOBurn, p.Node,
			fastBurn >= fastBurnMax && slowBurn >= slowBurnMax,
			fastBurn, fastBurnMax,
			fmt.Sprintf("probe success SLO burning %.1fx budget over %s and %.1fx over %s (SLO %.2f%%)",
				fastBurn, e.cfg.FastWindow, slowBurn, e.cfg.SlowWindow, e.cfg.SLOTarget*100), now)

		fastLatBurn := burnRate(p.FastSlow, p.FastTotal, budget)
		slowLatBurn := burnRate(p.SlowSlow, p.SlowTotal, budget)
		e.apply(RuleProbeLatencyBurn, p.Node,
			fastLatBurn >= fastBurnMax && slowLatBurn >= slowBurnMax,
			fastLatBurn, fastBurnMax,
			fmt.Sprintf("probe latency SLO (p<%s) burning %.1fx budget over %s and %.1fx over %s",
				e.cfg.LatencySLO, fastLatBurn, e.cfg.FastWindow, slowLatBurn, e.cfg.SlowWindow), now)
	}

	e.gc(now)
}

// burnRate is errors/total divided by the error budget; zero totals burn
// nothing (no data is not an outage).
func burnRate(errs, total, budget float64) float64 {
	if total <= 0 || budget <= 0 {
		return 0
	}
	return (errs / total) / budget
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
		st = &alertState{Alert: Alert{Rule: rule, Node: node, State: StatePending, Since: now}}
		e.cfg.Journal.Emit(obs.EventAlertPending, node, rule)
		if e.cfg.Registry != nil {
			st.gauge = e.cfg.Registry.Gauge("narada_alerts_firing",
				"Health alerts currently firing, by rule and node.",
				obs.L("rule", rule), obs.L("node", node))
		}
		e.alerts[key] = st
	}
	st.Value, st.Threshold, st.Message = value, threshold, msg

	if st.State == StateResolved && active {
		// A fresh violation re-arms the same alert entry (dedup by key).
		st.State, st.Since = StatePending, now
		st.FiredAt, st.ResolvedAt, st.clearSince = nil, nil, time.Time{}
	}
	var fired, resolved *Alert
	switch st.State {
	case StatePending:
		switch {
		case !active:
			delete(e.alerts, key) // condition cleared before firing: drop silently
		case now.Sub(st.Since) >= e.cfg.PendingFor:
			st.State = StateFiring
			at := now
			st.FiredAt = &at
			if st.gauge != nil {
				st.gauge.Set(1)
			}
			a := st.Alert
			fired = &a
		}
	case StateFiring:
		if active {
			st.clearSince = time.Time{}
		} else {
			if st.clearSince.IsZero() {
				st.clearSince = now
			}
			if now.Sub(st.clearSince) >= e.cfg.ResolveAfter {
				st.State = StateResolved
				at := now
				st.ResolvedAt = &at
				if st.gauge != nil {
					st.gauge.Set(0)
				}
				a := st.Alert
				resolved = &a
			}
		}
	}
	e.mu.Unlock()

	if fired != nil {
		e.publish(*fired)
	}
	if resolved != nil {
		e.publish(*resolved)
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
			now.Sub(*st.ResolvedAt) > e.cfg.RetainResolved {
			delete(e.alerts, key)
		}
	}
}

// stateRank orders /alerts output: firing first, then pending, then resolved.
func stateRank(s string) int {
	switch s {
	case StateFiring:
		return 0
	case StatePending:
		return 1
	default:
		return 2
	}
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

func (e *Engine) count(state string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, st := range e.alerts {
		if st.State == state {
			n++
		}
	}
	return n
}

// Firing returns the number of alerts currently firing.
func (e *Engine) Firing() int { return e.count(StateFiring) }

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
