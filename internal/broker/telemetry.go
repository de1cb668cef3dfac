package broker

import "narada/internal/obs"

// telemetry bundles the broker's metric handles. Handles are resolved once
// in initTelemetry, so recording on the publish fast path is a single atomic
// add. A broker constructed without a registry records into a private
// throwaway registry — the handles are always valid and the hot paths stay
// branch-free.
type telemetry struct {
	framesPublish   *obs.Counter // ingress publish frames (links + clients)
	framesDiscovery *obs.Counter // ingress discovery requests (all paths)
	framesControl   *obs.Counter // ingress control/heartbeat/(un)subscribe
	framesOther     *obs.Counter // anything else
	framesMalformed *obs.Counter // inbound frames that failed to decode

	reconnAttemptLink *obs.Counter // supervised link redial attempts
	reconnAttemptBDN  *obs.Counter // supervised registration redial attempts
	reconnLink        *obs.Counter // successful supervised link redials
	reconnBDN         *obs.Counter // successful supervised registration redials

	deliveredLocal *obs.Counter // publish frames enqueued to local clients
	deliveredLink  *obs.Counter // publish frames enqueued to links

	discoveryDup     *obs.Counter // requests suppressed by the dedup cache
	discoveryDenied  *obs.Counter // requests rejected by the response policy
	discoveryAnswers *obs.Counter // discovery responses sent
	pings            *obs.Counter // UDP pings answered

	egressDropQueueFull *obs.Counter // drop-oldest on a full egress queue
	egressDropConnDown  *obs.Counter // frame arrived after the writer died
	egressDropTooLarge  *obs.Counter // frame over the egress size ceiling

	framePoolHit    *obs.Counter   // shared-frame checkouts served from the pool
	framePoolMiss   *obs.Counter   // shared-frame checkouts that allocated
	framesPerFlush  *obs.Histogram // frames coalesced into one egress flush
	deliveryLatency *obs.Histogram // event origin -> egress flush, seconds

	// reg and who back the per-target supervision gauges, whose label sets
	// are only known when a supervised relationship is created. These sit
	// off the fast path (state transitions and advertise refreshes only).
	reg *obs.Registry
	who obs.Label

	tracer *obs.Tracer
}

// initTelemetry registers this broker's metric families on reg and captures
// the trace recorder. Instance identity rides in labels — broker="<logical>" for
// broker families, node="<logical>" for the shared dedup/ntptime families —
// so one registry can serve a whole in-process deployment.
func (b *Broker) initTelemetry(reg *obs.Registry, tracer *obs.Tracer) {
	who := obs.L("broker", b.cfg.LogicalAddress)
	node := obs.L("node", b.cfg.LogicalAddress)
	t := &b.tel
	t.tracer = tracer

	t.reg, t.who = reg, who

	const frames = "narada_broker_frames_total"
	const framesHelp = "Frames received by the broker, by kind."
	t.framesPublish = reg.Counter(frames, framesHelp, who, obs.L("kind", "publish"))
	t.framesDiscovery = reg.Counter(frames, framesHelp, who, obs.L("kind", "discovery"))
	t.framesControl = reg.Counter(frames, framesHelp, who, obs.L("kind", "control"))
	t.framesOther = reg.Counter(frames, framesHelp, who, obs.L("kind", "other"))
	t.framesMalformed = reg.Counter("narada_broker_frames_malformed_total",
		"Inbound frames that failed to decode and were discarded.", who)

	const reconnAttempts = "narada_broker_reconnect_attempts_total"
	const reconnAttemptsHelp = "Supervised redial attempts, by relationship kind."
	t.reconnAttemptLink = reg.Counter(reconnAttempts, reconnAttemptsHelp, who, obs.L("kind", SuperviseLink))
	t.reconnAttemptBDN = reg.Counter(reconnAttempts, reconnAttemptsHelp, who, obs.L("kind", SuperviseBDN))
	const reconns = "narada_broker_reconnects_total"
	const reconnsHelp = "Successful supervised redials, by relationship kind."
	t.reconnLink = reg.Counter(reconns, reconnsHelp, who, obs.L("kind", SuperviseLink))
	t.reconnBDN = reg.Counter(reconns, reconnsHelp, who, obs.L("kind", SuperviseBDN))

	const delivered = "narada_broker_publish_delivered_total"
	const deliveredHelp = "Publish frames enqueued for delivery, by destination."
	t.deliveredLocal = reg.Counter(delivered, deliveredHelp, who, obs.L("dest", "local"))
	t.deliveredLink = reg.Counter(delivered, deliveredHelp, who, obs.L("dest", "link"))

	const disc = "narada_broker_discovery_requests_total"
	const discHelp = "Discovery requests processed, by outcome."
	t.discoveryDup = reg.Counter(disc, discHelp, who, obs.L("outcome", "duplicate"))
	t.discoveryDenied = reg.Counter(disc, discHelp, who, obs.L("outcome", "denied"))
	t.discoveryAnswers = reg.Counter("narada_broker_discovery_responses_total",
		"Discovery responses sent over UDP.", who)
	t.pings = reg.Counter("narada_broker_pings_total", "UDP pings answered.", who)

	const dropped = "narada_broker_egress_dropped_total"
	const droppedHelp = "Frames dropped at egress queues, by reason."
	t.egressDropQueueFull = reg.Counter(dropped, droppedHelp, who, obs.L("reason", "queue_full"))
	t.egressDropConnDown = reg.Counter(dropped, droppedHelp, who, obs.L("reason", "conn_down"))
	t.egressDropTooLarge = reg.Counter(dropped, droppedHelp, who, obs.L("reason", "frame_too_large"))

	const framePool = "narada_broker_frame_pool_total"
	const framePoolHelp = "Shared-frame checkouts (receives and encodes), by whether the pool had a recycled frame."
	t.framePoolHit = reg.Counter(framePool, framePoolHelp, who, obs.L("result", "hit"))
	t.framePoolMiss = reg.Counter(framePool, framePoolHelp, who, obs.L("result", "miss"))
	t.framesPerFlush = reg.Histogram("narada_broker_egress_frames_per_flush",
		"Frames coalesced into a single egress write.",
		[]float64{1, 2, 4, 8, 16, 32, 64}, who)
	t.deliveryLatency = reg.Histogram("narada_delivery_latency_seconds",
		"End-to-end delivery latency: event origin timestamp to egress flush, NTP-aligned.",
		[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}, who)

	reg.GaugeFunc("narada_broker_links", "Active broker-to-broker links.",
		func() float64 { return float64(b.LinkCount()) }, who)
	reg.GaugeFunc("narada_broker_clients", "Connected clients (including BDN subscribers).",
		func() float64 { return float64(b.ClientCount()) }, who)
	reg.GaugeFunc("narada_broker_egress_queue_depth",
		"Frames currently queued across all egress queues.",
		func() float64 { return float64(b.egressQueueDepth()) }, who)

	const dedupHits = "narada_dedup_hits_total"
	const dedupHitsHelp = "Duplicate hits in the suppression caches."
	const dedupAdds = "narada_dedup_adds_total"
	const dedupAddsHelp = "Distinct insertions into the suppression caches."
	reg.CounterFunc(dedupHits, dedupHitsHelp,
		func() uint64 { h, _ := b.reqDedup.Stats(); return h }, node, obs.L("cache", "request"))
	reg.CounterFunc(dedupAdds, dedupAddsHelp,
		func() uint64 { _, a := b.reqDedup.Stats(); return a }, node, obs.L("cache", "request"))
	reg.CounterFunc(dedupHits, dedupHitsHelp,
		func() uint64 { h, _ := b.evDedup.Stats(); return h }, node, obs.L("cache", "event"))
	reg.CounterFunc(dedupAdds, dedupAddsHelp,
		func() uint64 { _, a := b.evDedup.Stats(); return a }, node, obs.L("cache", "event"))

	reg.GaugeFunc("narada_ntptime_offset_seconds",
		"Signed error of the NTP-corrected clock against true UTC.",
		func() float64 { return b.ntp.Residual().Seconds() }, node)
	reg.GaugeFunc("narada_ntptime_synchronized",
		"1 once the NTP service has computed clock offsets.",
		func() float64 {
			if b.ntp.Synchronized() {
				return 1
			}
			return 0
		}, node)
}

// linkStateGauge returns the health gauge of one supervised relationship:
// 0 connected, 1 degraded, 2 reconnecting, 3 stopped (LinkState).
func (t *telemetry) linkStateGauge(kind, target string) *obs.Gauge {
	return t.reg.Gauge("narada_broker_link_state",
		"Supervised relationship state (0 connected, 1 degraded, 2 reconnecting, 3 stopped).",
		t.who, obs.L("kind", kind), obs.L("target", target))
}

// registrationAgeGauge registers the registration-age series for one BDN
// target the first time the broker advertises to it: seconds since the last
// successful advertisement, the client-side view of registration freshness.
func (t *telemetry) registrationAgeGauge(b *Broker, target string) {
	t.reg.GaugeFunc("narada_broker_registration_age_seconds",
		"Seconds since the broker last refreshed its advertisement at the BDN.",
		func() float64 {
			last := b.lastAdvertised(target)
			if last.IsZero() {
				return 0
			}
			return b.node.Clock().Now().Sub(last).Seconds()
		}, t.who, obs.L("target", target))
}

// reqTrace wraps an obs.Trace for discovery-request events; the zero value
// records nothing, so untraced deployments pay no attr construction.
type reqTrace struct{ tr *obs.Trace }

// event records a point event stamped with this broker's identity and clock.
// kv is alternating attribute keys and values.
func (t reqTrace) event(b *Broker, name string, kv ...string) {
	if t.tr == nil {
		return
	}
	attrs := make([]obs.Attr, 0, 1+len(kv)/2)
	attrs = append(attrs, obs.A("broker", b.cfg.LogicalAddress))
	for i := 0; i+1 < len(kv); i += 2 {
		attrs = append(attrs, obs.A(kv[i], kv[i+1]))
	}
	t.tr.Event(name, b.node.Clock().Now(), attrs...)
}

// egressQueueDepth sums the frames queued in front of every live connection.
// Called at scrape time only.
func (b *Broker) egressQueueDepth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, lk := range b.links {
		if lk.out != nil {
			n += lk.out.depth()
		}
	}
	for _, c := range b.clients {
		if c.out != nil {
			n += c.out.depth()
		}
	}
	return n
}
