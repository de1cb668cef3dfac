package bdn

import (
	"narada/internal/obs"
)

// telemetry bundles the BDN's metric handles, resolved once in initTelemetry
// so recording is a single atomic operation. A BDN constructed without a
// registry records into a private throwaway registry, keeping every call site
// branch-free.
type telemetry struct {
	adsStored   *obs.Counter // advertisements admitted and stored
	adsRejected *obs.Counter // advertisements dropped by the admit filter
	adsExpired  *obs.Counter // registrations pruned by the TTL sweeper
	adsMerged   *obs.Counter // newer advertisements taken from a peer's table
	pullsDenied *obs.Counter // table pulls refused for a missing credential

	framesMalformed *obs.Counter // inbound frames that failed to decode

	reqAcked  *obs.Counter // discovery requests acknowledged
	reqDup    *obs.Counter // retransmissions suppressed by the dedup cache
	reqDenied *obs.Counter // requests refused for missing credentials

	injects *obs.Counter // per-broker request transmissions

	walAppends   *obs.Counter // records appended to the write-ahead log
	walSnapshots *obs.Counter // snapshots persisted (compaction points)
	walReplayed  *obs.Counter // records replayed during recovery
	walErrors    *obs.Counter // append/snapshot failures

	tracer *obs.Tracer
}

// initTelemetry registers the BDN's metric families on reg and captures the
// trace recorder. Instance identity rides
// in the bdn="<name>" label so one registry can serve several BDNs.
func (d *BDN) initTelemetry(reg *obs.Registry, tracer *obs.Tracer) {
	who := obs.L("bdn", d.cfg.Name)
	t := &d.tel
	t.tracer = tracer

	const ads = "narada_bdn_advertisements_total"
	const adsHelp = "Broker advertisements received, by outcome."
	t.adsStored = reg.Counter(ads, adsHelp, who, obs.L("outcome", "stored"))
	t.adsRejected = reg.Counter(ads, adsHelp, who, obs.L("outcome", "rejected"))
	t.adsExpired = reg.Counter(ads, adsHelp, who, obs.L("outcome", "expired"))
	t.adsMerged = reg.Counter(ads, adsHelp, who, obs.L("outcome", "merged"))
	t.pullsDenied = reg.Counter("narada_bdn_table_pulls_denied_total",
		"Peer table pulls refused for a missing or wrong credential.", who)

	t.framesMalformed = reg.Counter("narada_bdn_frames_malformed_total",
		"Inbound frames that failed to decode and were discarded.", who)

	const reqs = "narada_bdn_requests_total"
	const reqsHelp = "Discovery requests processed, by outcome."
	t.reqAcked = reg.Counter(reqs, reqsHelp, who, obs.L("outcome", "acked"))
	t.reqDup = reg.Counter(reqs, reqsHelp, who, obs.L("outcome", "duplicate"))
	t.reqDenied = reg.Counter(reqs, reqsHelp, who, obs.L("outcome", "denied"))

	t.injects = reg.Counter("narada_bdn_injections_total",
		"Discovery-request transmissions into the broker network.", who)

	const walOps = "narada_bdn_wal_records_total"
	const walOpsHelp = "Durable-registry write-ahead log records, by operation."
	t.walAppends = reg.Counter(walOps, walOpsHelp, who, obs.L("op", "append"))
	t.walReplayed = reg.Counter(walOps, walOpsHelp, who, obs.L("op", "replay"))
	t.walSnapshots = reg.Counter("narada_bdn_wal_snapshots_total",
		"Registry snapshots persisted (WAL compaction points).", who)
	t.walErrors = reg.Counter("narada_bdn_wal_errors_total",
		"WAL append or snapshot failures (registry durability at risk).", who)
	reg.GaugeFunc("narada_bdn_wal_last_index",
		"Highest write-ahead log index appended by this BDN.",
		func() float64 {
			if log := d.walLog(); log != nil {
				return float64(log.LastIndex())
			}
			return 0
		}, who)

	reg.GaugeFunc("narada_bdn_brokers",
		"Broker advertisements currently stored.",
		func() float64 { return float64(d.BrokerCount()) }, who)

	node := obs.L("node", d.cfg.Name)
	reg.CounterFunc("narada_dedup_hits_total",
		"Duplicate hits in the suppression caches.",
		func() uint64 { h, _ := d.reqDedup.Stats(); return h }, node, obs.L("cache", "request"))
	reg.CounterFunc("narada_dedup_adds_total",
		"Distinct insertions into the suppression caches.",
		func() uint64 { _, a := d.reqDedup.Stats(); return a }, node, obs.L("cache", "request"))

	reg.GaugeFunc("narada_ntptime_offset_seconds",
		"Signed error of the NTP-corrected clock against true UTC.",
		func() float64 { return d.ntp.Residual().Seconds() }, node)
	reg.GaugeFunc("narada_ntptime_synchronized",
		"1 once the NTP service has computed clock offsets.",
		func() float64 {
			if d.ntp.Synchronized() {
				return 1
			}
			return 0
		}, node)
}

// traceEvent records a point event on the request's trace, stamped with this
// BDN's identity and clock. No-op without a tracer.
func (d *BDN) traceEvent(id string, name string, kv ...string) {
	if d.tel.tracer == nil {
		return
	}
	attrs := make([]obs.Attr, 0, 1+len(kv)/2)
	attrs = append(attrs, obs.A("bdn", d.cfg.Name))
	for i := 0; i+1 < len(kv); i += 2 {
		attrs = append(attrs, obs.A(kv[i], kv[i+1]))
	}
	d.tel.tracer.Trace(id).Event(name, d.node.Clock().Now(), attrs...)
}
