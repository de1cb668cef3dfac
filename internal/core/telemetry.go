package core

import (
	"narada/internal/obs"
)

// phaseLatencyBuckets span the sub-millisecond shortlist/decide phases up to
// multi-second collection windows.
var phaseLatencyBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// pingRTTBuckets cover LAN to intercontinental round trips.
var pingRTTBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// telemetry bundles the discoverer's metric handles, resolved once in
// initTelemetry. A discoverer constructed without a registry records into a
// private throwaway registry, so Discover never branches on "metrics on?".
type telemetry struct {
	phases    [phaseCount]*obs.Histogram // per-phase duration, Breakdown mirror
	total     *obs.Histogram             // end-to-end discovery duration
	responses *obs.Histogram             // distinct responses per discovery
	pingRTT   *obs.Histogram             // per-candidate average ping RTT

	ok          *obs.Counter // discoveries that selected a broker
	noResponses *obs.Counter // discoveries that drew no responses
	noPath      *obs.Counter // discoveries with no way to issue the request
	retransmits *obs.Counter // BDN request retransmissions

	tracer *obs.Tracer
}

// initTelemetry registers the discovery metric families on reg and captures
// the trace recorder. Instance identity rides
// in the node="<name>" label.
func (d *Discoverer) initTelemetry(reg *obs.Registry, tracer *obs.Tracer) {
	who := obs.L("node", d.cfg.NodeName)
	t := &d.tel
	t.tracer = tracer

	const phase = "narada_discovery_phase_seconds"
	const phaseHelp = "Duration of each discovery sub-activity (paper Figures 2/9/11)."
	for _, p := range Phases() {
		t.phases[p] = reg.Histogram(phase, phaseHelp, phaseLatencyBuckets,
			who, obs.L("phase", p.String()))
	}
	t.total = reg.Histogram("narada_discovery_total_seconds",
		"End-to-end duration of one discovery.", phaseLatencyBuckets, who)
	t.responses = reg.Histogram("narada_discovery_responses",
		"Distinct broker responses collected per discovery.",
		[]float64{0, 1, 2, 4, 8, 16, 32, 64, 128}, who)
	t.pingRTT = reg.Histogram("narada_discovery_ping_rtt_seconds",
		"Average UDP ping round-trip time per shortlisted broker.",
		pingRTTBuckets, who)

	const outcome = "narada_discovery_requests_total"
	const outcomeHelp = "Discoveries performed, by outcome."
	t.ok = reg.Counter(outcome, outcomeHelp, who, obs.L("outcome", "ok"))
	t.noResponses = reg.Counter(outcome, outcomeHelp, who, obs.L("outcome", "no-responses"))
	t.noPath = reg.Counter(outcome, outcomeHelp, who, obs.L("outcome", "no-path"))
	t.retransmits = reg.Counter("narada_discovery_retransmits_total",
		"Discovery request retransmissions to BDNs.", who)

	reg.GaugeFunc("narada_ntptime_offset_seconds",
		"Signed error of the NTP-corrected clock against true UTC.",
		func() float64 { return d.ntp.Residual().Seconds() }, who)
	reg.GaugeFunc("narada_ntptime_synchronized",
		"1 once the NTP service has computed clock offsets.",
		func() float64 {
			if d.ntp.Synchronized() {
				return 1
			}
			return 0
		}, who)
}

// observeOutcome folds a finished discovery into the metric families: one
// outcome count, the per-phase and total histograms, response counts and the
// measured ping RTTs of the target set.
func (d *Discoverer) observeOutcome(res *Result, err error) {
	switch err {
	case nil:
		d.tel.ok.Inc()
	case ErrNoResponses:
		d.tel.noResponses.Inc()
	case ErrNoPath:
		d.tel.noPath.Inc()
	default:
		// Issue-path failures (listen errors etc.) land here; count them with
		// the unreachable case, the closest outcome.
		d.tel.noPath.Inc()
	}
	if res == nil {
		return
	}
	d.tel.retransmits.Add(uint64(res.Retransmits))
	for _, p := range Phases() {
		d.tel.phases[p].ObserveDuration(res.Timing.Get(p))
	}
	d.tel.total.ObserveDuration(res.Timing.Total())
	d.tel.responses.Observe(float64(len(res.Responses)))
	for _, c := range res.TargetSet {
		if c.PingCount > 0 {
			d.tel.pingRTT.ObserveDuration(c.PingRTT)
		}
	}
}
