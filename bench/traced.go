package main

import (
	"fmt"
	"os"
	"path/filepath"

	"narada/internal/core"
)

// tracedRound sets a workload up, warms it and runs one round. A traced rig
// has its children's /metrics scraped at the open-loop segment's boundaries
// and keeps its operations for the span file.
func tracedRound(o runOpts, in *inputs, traced bool) (rd round, problems []string, err error) {
	r, _, err := setup(o, in, traced)
	if err != nil {
		return rd, nil, err
	}
	defer func() {
		if err != nil {
			r.fleet().dumpStderr(os.Stderr)
		}
		r.close()
	}()
	if _, err = runRound(r, warmDur, warmDur); err != nil {
		return rd, nil, err
	}
	if rd, err = runRound(r, o.dur[0], o.dur[1]); err != nil {
		return rd, nil, err
	}
	return rd, r.finish(), nil
}

func cpuPerOp(rd round) float64 {
	if rd.open.Completed == 0 {
		return 0
	}
	return us(rd.kids.cpu()) / float64(rd.open.Completed)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// phaseMetrics names the discovery phases the way the per-layer table does,
// in core.Phases() order.
var phaseMetrics = []string{
	"core.phase.request_issue_us",
	"core.phase.wait_responses_us",
	"core.phase.shortlist_us",
	"core.phase.ping_us",
	"core.phase.decide_us",
}

// liveSpans turns the traced round's operations into spans: a root from the
// operation's due time to its completion, and for discovery the live call
// below it with its phases laid end to end from core.Result.Timing.
func liveSpans(rec *recorder, ops []opRecord) {
	for _, op := range ops {
		root := rec.add(0, op.ID, "op", op.Due, op.End)
		if op.Timing == nil {
			continue
		}
		call := rec.add(root, op.ID, "core.discover", op.Start, op.End)
		at := op.Start
		for i, p := range core.Phases() {
			d := int64(op.Timing.Get(p))
			name := phaseMetrics[i]
			rec.add(call, op.ID, name[:len(name)-len("_us")], at, at+d)
			at += d
		}
	}
}

// runTraced is the traced run, separate from and shorter than the measured
// one: one untraced round for reference, one traced round, then the layer
// replay. It reports every per-layer metric and writes the span file; the
// end-to-end metrics come from the untraced run only.
func runTraced(o runOpts) (*report, error) {
	rep := &report{Workload: o.w.Name, Metrics: map[string]metric{}}
	in := newInputs(o.w, o.seed)

	ref, problems, err := tracedRound(o, in, false)
	if err != nil {
		return nil, err
	}
	rep.Problems = append(rep.Problems, problems...)
	tr, problems, err := tracedRound(o, in, true)
	if err != nil {
		return nil, err
	}
	rep.Problems = append(rep.Problems, problems...)

	live, replayed := &recorder{}, &recorder{}
	liveSpans(live, tr.open.Ops)
	m, err := replayMetrics(o.root, o.w, in, o.seed, replayed)
	if err != nil {
		return nil, err
	}
	rep.Metrics = m
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// /proc of the children over the traced round's open-loop segment.
	ops := float64(tr.open.Completed)
	set("broker.cpu_user_us_per_op", ratio(us(tr.brokers.User), ops), "us")
	set("broker.cpu_sys_us_per_op", ratio(us(tr.brokers.Sys), ops), "us")
	set("broker.read_syscalls_per_op", ratio(float64(tr.brokers.ReadCalls), ops), "1/op")
	set("broker.write_syscalls_per_op", ratio(float64(tr.brokers.WriteCalls), ops), "1/op")
	set("broker.ctx_switches_per_op", ratio(float64(tr.brokers.CtxSwitch), ops), "1/op")
	set("bdn.cpu_us_per_op", ratio(us(tr.bdn.cpu()), ops), "us")

	// The children's own /metrics over the same segment.
	bp, end := tr.brokerProm, tr.brokerPromEnd
	set("broker.frames_per_flush_mean", ratio(bp.sum("narada_broker_egress_frames_per_flush_sum"), bp.sum("narada_broker_egress_frames_per_flush_count")), "frames")
	set("broker.egress_dropped", bp.sum("narada_broker_egress_dropped_total"), "count")
	miss := bp.sum("narada_broker_frame_pool_total", `result="miss"`)
	set("broker.frame_pool_miss_ratio", ratio(miss, miss+bp.sum("narada_broker_frame_pool_total", `result="hit"`)), "ratio")
	hits := bp.sum("narada_dedup_hits_total", `cache="event"`)
	set("broker.dedup_hit_ratio", ratio(hits, hits+bp.sum("narada_dedup_adds_total", `cache="event"`)), "ratio")
	set("broker.gc_cycles_per_kop", ratio(1000*bp.sum("narada_process_gc_cycles_total"), ops), "1/kop")
	set("broker.heap_inuse_mib", end.sum("narada_process_heap_inuse_bytes")/(1<<20), "MiB")
	set("bdn.injections_per_op", ratio(tr.bdnProm.sum("narada_bdn_injections_total"), ops), "1/op")
	set("bdn.wal_records_per_s", ratio(tr.bdnProm.sum("narada_bdn_wal_records_total", `op="append"`), tr.open.Wall.Seconds()), "1/s")

	// core.Result.Timing of the traced round's discoveries.
	for i, name := range phaseMetrics {
		var ns []int64
		for _, op := range tr.open.Ops {
			if op.Timing != nil {
				ns = append(ns, int64(op.Timing.Get(core.Phases()[i])))
			}
		}
		set(name, percentileUS(sortedCopy(ns), 0.5), "us")
	}
	set("core.responses_per_op", ratio(float64(tr.open.Responses), ops), "1/op")
	set("core.retransmits_per_op", ratio(float64(tr.open.Retransmits), ops), "1/op")

	// Validity of the run, from the untraced reference round.
	stats := endToEnd(rep, []round{ref})
	rep.Attempted += tr.closed.Attempted + tr.open.Attempted
	rep.Failed += tr.closed.Failed + tr.open.Failed
	for _, name := range []string{"bench.gen_timer_late_p50_us", "bench.gen_sched_late_p99_us", "bench.gen_cpu_us_per_op", "bench.lat_p95_us", "bench.lat_p99_us", "bench.lat_p999_us"} {
		set(name, stats[name].Median, "us")
	}
	set("bench.build_s", o.bins.BuildTime.Seconds(), "s")
	set("bench.trace_overhead_ratio", ratio(cpuPerOp(tr), cpuPerOp(ref)), "ratio")
	set("bench.failed_ratio", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio")
	set("bench.replay_span_coverage", replayed.rootCoverage(), "ratio")

	// One span file per workload: the traced round's live operations, then
	// the replayed ones.
	all := &recorder{spans: append(live.spans, renumber(replayed.spans, len(live.spans))...)}
	path := filepath.Join(o.root, buildDir, "out", "trace-"+o.w.Name+".json")
	if err := all.write(path, o.w.Name, o.seed); err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d spans written to %s", len(all.spans), path),
		fmt.Sprintf("replayed operation, per-layer self time as a share of the root span (coverage %.3f):", replayed.rootCoverage()))
	rep.Notes = append(rep.Notes, layerShares(replayed)...)
	if len(live.spans) > 0 && o.w.Discover {
		rep.Notes = append(rep.Notes, "live discovery, per-layer self time as a share of the operation:")
		rep.Notes = append(rep.Notes, layerShares(live)...)
	}
	return rep, nil
}

// renumber shifts span ids so that two recorders' spans can share a file.
func renumber(spans []span, by int) []span {
	out := make([]span, len(spans))
	for i, s := range spans {
		s.ID += by
		if s.Parent != 0 {
			s.Parent += by
		}
		out[i] = s
	}
	return out
}
