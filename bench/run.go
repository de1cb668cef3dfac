package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run of one workload produced.
type report struct {
	Workload  string
	Attempted int
	Failed    int
	Problems  []string          // violated output checks, beyond failed operations
	Metrics   map[string]metric // what the result line carries
	Notes     []string          // human-readable lines: spreads over rounds, validity flags
}

func (r *report) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

type runOpts struct {
	root    string
	bins    *binaries
	w       *workload
	seed    int64
	seconds float64
	dur     [2]time.Duration // closed, open segment lengths (tests shorten them)
}

// setup builds the system for a workload and returns the rig with the time
// from the first child's exec to the readiness probe passing.
func setup(o runOpts, in *inputs, traced bool) (rig, time.Duration, error) {
	var (
		r   rig
		err error
	)
	if o.w.Discover {
		r, err = setupDiscover(o.root, o.bins, o.w, traced)
	} else {
		r, err = setupPublish(o.root, o.bins, o.w, in, traced)
	}
	if err != nil {
		return nil, 0, err
	}
	return r, time.Since(r.fleet().firstExec), nil
}

// round is the outcome of one closed-loop plus one open-loop segment.
type round struct {
	closed, open segResult
	closedKids   procSample    // all children, over the closed-loop segment
	closedGen    time.Duration // this process's CPU, same interval
	kids         procSample    // all children, over the open-loop segment
	brokers, bdn procSample    // by kind, same interval

	// Traced rigs only: the children's /metrics, as the change over the
	// open-loop segment and as read at its end (for gauges).
	brokerProm, brokerPromEnd, bdnProm promSamples
}

// procAll is one reading of everything /proc is asked about a rig.
type procAll struct {
	kids, brokers, bdn procSample
	gen                time.Duration
}

func sampleAll(f *fleet) (procAll, error) {
	var p procAll
	var err error
	if p.brokers, err = f.sample("broker"); err != nil {
		return p, err
	}
	if p.bdn, err = f.sample("bdn"); err != nil {
		return p, err
	}
	p.kids = p.brokers.add(p.bdn) // every child is one or the other
	self, err := sampleProc(os.Getpid())
	p.gen = self.CPU
	return p, err
}

// runRound runs one closed-loop then one open-loop segment, bracketing each
// with /proc samples and, on a traced rig, the open-loop one with scrapes.
func runRound(r rig, closedDur, openDur time.Duration) (round, error) {
	var rd round
	f, tele := r.fleet(), r.telemetryAddrs()
	p0, err := sampleAll(f)
	if err != nil {
		return rd, err
	}
	if rd.closed, err = r.closed(closedDur); err != nil {
		return rd, err
	}
	var br0, bd0 promSamples
	if len(tele) > 0 {
		if br0, err = scrapeAll(tele, "broker"); err != nil {
			return rd, err
		}
		if bd0, err = scrapeAll(tele, "bdn"); err != nil {
			return rd, err
		}
	}
	p1, err := sampleAll(f)
	if err != nil {
		return rd, err
	}
	if rd.open, err = r.open(openDur); err != nil {
		return rd, err
	}
	p2, err := sampleAll(f)
	if err != nil {
		return rd, err
	}
	if len(tele) > 0 {
		if rd.brokerPromEnd, err = scrapeAll(tele, "broker"); err != nil {
			return rd, err
		}
		bd1, err := scrapeAll(tele, "bdn")
		if err != nil {
			return rd, err
		}
		rd.brokerProm, rd.bdnProm = rd.brokerPromEnd.sub(br0), bd1.sub(bd0)
	}
	rd.closedKids, rd.closedGen = p1.kids.sub(p0.kids), p1.gen-p0.gen
	rd.kids, rd.brokers, rd.bdn = p2.kids.sub(p1.kids), p2.brokers.sub(p1.brokers), p2.bdn.sub(p1.bdn)
	return rd, nil
}

func (p procSample) cpu() time.Duration { return p.CPU }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEnd reduces the rounds of a run to the end-to-end metrics plus the
// diagnostic figures that say whether the generator can be trusted.
func endToEnd(rep *report, rounds []round) map[string]roundStat {
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	var latAll []int64
	var timerLate, schedLate []time.Duration
	for _, rd := range rounds {
		rep.Attempted += rd.closed.Attempted + rd.open.Attempted
		rep.Failed += rd.closed.Failed + rd.open.Failed
		add("capacity_ops_s", float64(rd.closed.Completed)/rd.closed.Wall.Seconds())
		if n := len(rd.open.Lat); n > 0 {
			s := sortedCopy(rd.open.Lat)
			add("lat_p50_us", percentileUS(s, 0.50))
			add("bench.lat_p95_us", percentileUS(s, 0.95))
			latAll = append(latAll, s...)
		}
		if done := float64(rd.open.Completed); done > 0 {
			add("cpu_us_per_op", us(rd.kids.cpu())/done)
		}
		if done := float64(rd.closed.Completed); done > 0 {
			add("bench.gen_cpu_us_per_op", us(rd.closedGen)/done)
			add("bench.kids_cpu_us_per_op_at_capacity", us(rd.closedKids.cpu())/done)
		}
		timerLate = append(timerLate, rd.open.TimerLate...)
		schedLate = append(schedLate, rd.open.SchedLate...)
	}
	stats := map[string]roundStat{}
	for name, vals := range per {
		stats[name] = overRounds(vals)
	}
	for i := range rounds {
		line := fmt.Sprintf("round %d:", i)
		for _, name := range []string{"capacity_ops_s", "lat_p50_us", "bench.lat_p95_us", "cpu_us_per_op"} {
			if vals := per[name]; i < len(vals) {
				line += fmt.Sprintf(" %s=%.4g", name, vals[i])
			}
		}
		rep.Notes = append(rep.Notes, line)
	}
	// Tail percentiles pool every round's samples: one round holds too few
	// for a stable far tail, and they are diagnostics, not gated.
	sort.Slice(latAll, func(i, j int) bool { return latAll[i] < latAll[j] })
	for _, t := range []struct {
		name string
		q    float64
	}{{"bench.lat_p99_us", 0.99}, {"bench.lat_p999_us", 0.999}} {
		if supported(len(latAll), t.q) {
			stats[t.name] = single(percentileUS(latAll, t.q), len(latAll))
		}
	}
	stats["bench.gen_timer_late_p50_us"] = single(percentileUS(sortedCopy(timerLate), 0.50), len(timerLate))
	stats["bench.gen_sched_late_p99_us"] = single(percentileUS(sortedCopy(schedLate), 0.99), len(schedLate))
	return stats
}

var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"capacity_ops_s", "ops/s"},
	{"lat_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mib", "MiB"},
}

// runWorkload is the untraced, measured run: several set-ups (the last one
// is kept), a warm-up, then rounds until --seconds are used.
func runWorkload(o runOpts) (rep *report, err error) {
	rep = &report{Workload: o.w.Name, Metrics: map[string]metric{}}
	in := newInputs(o.w, o.seed)

	var r rig
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if r != nil {
			r.close()
		}
		var took time.Duration
		if r, took, err = setup(o, in, false); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer func() {
		if err != nil {
			r.fleet().dumpStderr(os.Stderr)
		}
		r.close()
	}()

	if _, err = runRound(r, warmDur, warmDur); err != nil {
		return nil, err
	}
	n := int(o.seconds / (o.dur[0] + o.dur[1]).Seconds())
	if n < 1 {
		n = 1
	}
	rounds := make([]round, 0, n)
	for i := 0; i < n; i++ {
		rd, err := runRound(r, o.dur[0], o.dur[1])
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, rd)
	}
	rep.Problems = r.finish()
	end, err := r.fleet().sample("")
	if err != nil {
		return nil, err
	}

	stats := endToEnd(rep, rounds)
	stats["setup_s"] = overRounds(setups)
	stats["peak_rss_mib"] = single(float64(end.PeakRSSKiB)/1024, 1)
	for _, m := range endToEndUnits {
		st, ok := stats[m.name]
		if !ok {
			rep.Problems = append(rep.Problems, "no sample for "+m.name)
			continue
		}
		rep.Metrics[m.name] = metric{Value: st.Median, Unit: m.unit}
	}
	rep.Notes = append(rep.Notes, describe(stats)...)
	return rep, nil
}

// describe renders every figure of a run with its spread over rounds, and
// flags a run whose generator was the limit.
func describe(stats map[string]roundStat) []string {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		s := stats[n]
		out = append(out, fmt.Sprintf("%-32s %14.4f  (min %.4f max %.4f n=%d)", n, s.Median, s.Min, s.Max, s.Rounds))
	}
	if g, c := stats["bench.gen_cpu_us_per_op"], stats["bench.kids_cpu_us_per_op_at_capacity"]; g.Median > c.Median && c.Rounds > 0 {
		out = append(out, fmt.Sprintf("GENERATOR-BOUND: at capacity the generator used more CPU per operation (%.2f us) than the children (%.2f us); capacity_ops_s is the two together", g.Median, c.Median))
	}
	if s := stats["bench.gen_sched_late_p99_us"]; s.Median > 2000 {
		out = append(out, fmt.Sprintf("UNRELIABLE: the generator reached 1%% of its ticks more than 2 ms late (%.0f us): the host stalled", s.Median))
	}
	return out
}
