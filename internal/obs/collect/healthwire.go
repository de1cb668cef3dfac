package collect

import (
	"time"

	"narada/internal/obs/collect/health"
)

// Metric families the health rules read from the series store.
const (
	metricEgressDepth     = "narada_broker_egress_queue_depth"
	metricEgressDrops     = "narada_broker_egress_dropped_total"
	metricReconnects      = "narada_broker_reconnects_total"
	metricProbeRuns       = "narada_probe_runs_total"
	metricProbeLatency    = "narada_probe_latency_seconds"
	metricDelivered       = "narada_broker_publish_delivered_total"
	metricDeliveryLatency = "narada_delivery_latency_seconds"
	metricGoroutines      = "narada_process_goroutines"
	metricGCCPU           = "narada_runtime_gc_cpu_fraction"
)

// Health returns the collector's health engine (alert listing, Firing count).
func (c *Collector) Health() *health.Engine { return c.health }

// Query runs a range query against the series store at the retention tier
// whose step matches (the /query endpoint and tests read through this).
func (c *Collector) Query(metric, node string, step time.Duration, since, now time.Time) []QuerySeries {
	return c.store.Query(metric, node, step, since, now)
}

// healthLoop evaluates the rules once per scrape interval, half an interval
// off the scrape grid (startLoop).
func (c *Collector) healthLoop() {
	select {
	case <-time.After(c.win.Scrape/2 - time.Since(c.born)):
	case <-c.ctx.Done():
		return
	}
	ticker := time.NewTicker(c.win.Scrape)
	defer ticker.Stop()
	for {
		c.evaluate()
		select {
		case <-ticker.C:
		case <-c.ctx.Done():
			return
		}
	}
}

// evaluate assembles one health Input from ingest state and the series store
// and runs the rule evaluator. healthLoop calls it every scrape interval;
// this package's tests call it directly for deterministic evaluation.
func (c *Collector) evaluate() {
	// The collector is a node too, scraped in process: before the rules, so
	// it is never silent, and after, so /events and /topology never trail the
	// /alerts the evaluation just changed.
	_ = c.scrape(c.self)
	now, w := time.Now(), c.win

	var nodes []health.NodeInput
	for _, ns := range c.nodeStates() {
		nodes = append(nodes, health.NodeInput{Name: ns.name, LastSeen: ns.lastSeen, ClockOffset: ns.offset})
		n := &nodes[len(nodes)-1]
		if depth, ok := c.store.LastGauge(metricEgressDepth, n.Name, w.Deadman, now); ok {
			n.HasEgress = true
			n.EgressDepth = depth
		}
		if drops, ok := c.store.WindowSum(metricEgressDrops, n.Name, w.Egress, now); ok {
			n.HasEgress = true
			n.EgressDropRate = drops / w.Egress.Seconds()
		}
		if reconns, ok := c.store.WindowSum(metricReconnects, n.Name, w.Flap, now); ok {
			n.HasFlaps = true
			n.LinkFlapRate = reconns / w.Flap.Seconds()
		}
		// Delivery-latency burn: split the e2e latency histogram at the SLO
		// over both burn windows, exactly like the probe latency SLI.
		fastTotal, fastSlow := c.windowLatencySLI(metricDeliveryLatency, n.Name, w.FastBurn, health.DeliveryLatencySLO, now)
		slowTotal, slowSlow := c.windowLatencySLI(metricDeliveryLatency, n.Name, w.SlowBurn, health.DeliveryLatencySLO, now)
		if fastTotal > 0 || slowTotal > 0 {
			n.HasDelivery = true
			n.DeliveryFastTotal, n.DeliveryFastSlow = fastTotal, fastSlow
			n.DeliverySlowTotal, n.DeliverySlowSlow = slowTotal, slowSlow
		}
		// Drop ratio: drops over delivery attempts. The delivered counter is
		// recorded at egress enqueue, so every dropped data frame is already
		// in the denominator — no double counting.
		if delivered, ok := c.store.WindowSum(metricDelivered, n.Name, w.Egress, now); ok && delivered > 0 {
			drops, _ := c.store.WindowSum(metricEgressDrops, n.Name, w.Egress, now)
			n.HasDropRatio = true
			n.DropVolume = delivered
			n.DropRatio = drops / delivered
		}
		// Runtime-telemetry rules: goroutine trend and GC CPU pressure, from
		// the RuntimeSampler gauges every node exports.
		if minG, lastG, _, ok := c.store.GaugeWindowStats(metricGoroutines, n.Name, w.GoroutineLeak, now); ok {
			n.HasGoroutines = true
			n.GoroutinesMin, n.GoroutinesLast = minG, lastG
		}
		if _, _, avgGC, ok := c.store.GaugeWindowStats(metricGCCPU, n.Name, w.GCBurn, now); ok {
			n.HasGCCPU = true
			n.GCCPUFraction = avgGC
		}
	}

	var probes []health.ProbeInput
	for _, pn := range c.store.NodesWith(metricProbeRuns) {
		fast := c.store.WindowSumBy(metricProbeRuns, pn, "outcome", w.FastBurn, now)
		slow := c.store.WindowSumBy(metricProbeRuns, pn, "outcome", w.SlowBurn, now)
		pi := health.ProbeInput{
			Node:    pn,
			FastOK:  fast["ok"],
			FastErr: fast["error"],
			SlowOK:  slow["ok"],
			SlowErr: slow["error"],
		}
		pi.FastTotal, pi.FastSlow = c.windowLatencySLI(metricProbeLatency, pn, w.FastBurn, health.ProbeLatencySLO, now)
		pi.SlowTotal, pi.SlowSlow = c.windowLatencySLI(metricProbeLatency, pn, w.SlowBurn, health.ProbeLatencySLO, now)
		probes = append(probes, pi)
	}

	c.health.Evaluate(health.Input{Now: now, Nodes: nodes, Probes: probes})
	_ = c.scrape(c.self)
}

// windowLatencySLI reads a latency histogram's window and splits it into
// total observations and those slower than the SLO. Observations land on the
// slow side unless their whole bucket fits under the objective, so the SLI
// never flatters the fabric.
func (c *Collector) windowLatencySLI(metric, node string, window, slo time.Duration, now time.Time) (total, slowOnes float64) {
	bounds, buckets, count, _, ok := c.store.WindowHist(metric, node, window, now)
	if !ok || count == 0 {
		return 0, 0
	}
	good := uint64(0)
	for i, b := range bounds {
		if b <= slo.Seconds() {
			good += buckets[i]
		}
	}
	return float64(count), float64(count - min(good, count))
}
