package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"narada/internal/core"
	"narada/internal/ntptime"
	"narada/internal/transport"
)

var reBDNListening = regexp.MustCompile(`bdn \S+ listening on (\S+)`)

// discRig drives discover_loopback: one BDN with a durable registry, and
// Brokers brokers registered with it that refresh their advertisement every
// 200 ms, so WAL writes run beside discovery reads. Brokers 1..n-1 are
// linked to broker 0.
type discRig struct {
	w      *workload
	kids   *fleet
	tele   map[string]string
	traced bool
	names  map[string]bool
	reqs   []*core.Discoverer
}

func (r *discRig) fleet() *fleet                     { return r.kids }
func (r *discRig) telemetryAddrs() map[string]string { return r.tele }
func (r *discRig) finish() []string                  { return nil }
func (r *discRig) close()                            { r.kids.stop() }

func setupDiscover(root string, bins *binaries, w *workload, traced bool) (_ *discRig, err error) {
	telemetry := traced
	f, err := newFleet(root)
	if err != nil {
		return nil, err
	}
	r := &discRig{w: w, kids: f, tele: map[string]string{}, traced: traced, names: map[string]bool{}}
	defer func() {
		if err != nil {
			r.close()
		}
	}()

	args := []string{"-bind", "127.0.0.1", "-name", "bench-bdn",
		"-data-dir", filepath.Join(f.dir, "bdn-data"), "-fsync", "interval"}
	if telemetry {
		args = append(args, "-telemetry-addr", "127.0.0.1:0")
	}
	bdn, err := f.start("bdn", bins.BDN, args...)
	if err != nil {
		return nil, err
	}
	m, err := bdn.waitLog(reBDNListening, 10*time.Second)
	if err != nil {
		return nil, err
	}
	bdnAddr := m[1]
	if telemetry {
		t, err := bdn.waitLog(reTelemetry, 10*time.Second)
		if err != nil {
			return nil, err
		}
		r.tele["bdn"] = t[1]
	}

	hub := ""
	for i := 0; i < w.Brokers; i++ {
		name := fmt.Sprintf("broker-%d", i)
		extra := []string{"-bdn", bdnAddr, "-advertise-every", "200ms"}
		if i > 0 {
			extra = append(extra, "-link", hub)
		}
		addr, err := startBroker(f, bins, name, telemetry, r.tele, extra...)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			hub = addr
		}
		r.names[name] = true
	}

	node := transport.NewRealNode("127.0.0.1", nil)
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()
	cfg := core.Config{
		BDNAddrs:      []string{bdnAddr},
		MaxResponses:  w.Brokers,
		PingCount:     3,
		CollectWindow: 2 * time.Second,
	}
	for i := 0; i < w.Requesters; i++ {
		cfg.NodeName = fmt.Sprintf("bench-req-%d", i)
		r.reqs = append(r.reqs, core.NewDiscoverer(node, ntp, cfg))
	}

	// Ready when a probe discovery is answered by every broker: all are
	// registered or reachable over their links. The probe uses a short
	// collection window, so an incomplete fleet costs little per attempt.
	cfg.NodeName, cfg.CollectWindow = "bench-probe", 5*time.Millisecond
	probe := core.NewDiscoverer(node, ntp, cfg)
	deadline := time.Now().Add(20 * time.Second)
	for {
		res, err := probe.Discover()
		if err == nil && r.verify(res) == nil {
			return r, nil
		}
		if err := f.alive(); err != nil {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("bench: %s: not every broker answered a probe discovery within 20s (last: %v)", w.Name, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// verify is the operation's correctness predicate.
func (r *discRig) verify(res *core.Result) error {
	switch {
	case len(res.Responses) != r.w.Brokers:
		return fmt.Errorf("%d responses, want %d", len(res.Responses), r.w.Brokers)
	case !res.PingDecided:
		return fmt.Errorf("selection not decided by ping")
	case !r.names[res.Selected.LogicalAddress]:
		return fmt.Errorf("selected unknown broker %q", res.Selected.LogicalAddress)
	}
	return nil
}

// discover runs one operation due at the given time. It reports whether the
// operation met every check and, for traced rigs, what the call did.
func (r *discRig) discover(d *core.Discoverer, due time.Time, into *segResult) (ok bool, end time.Time) {
	start := time.Now()
	res, err := d.Discover()
	end = time.Now()
	into.Attempted++
	if err == nil {
		err = r.verify(res)
	}
	if err != nil {
		into.Failed++
		fmt.Fprintf(os.Stderr, "bench: %s: discovery failed after %v: %v\n", r.w.Name, end.Sub(start), err)
		return false, end
	}
	into.Completed++
	into.Responses += len(res.Responses)
	into.Retransmits += res.Retransmits
	if r.traced && len(into.Ops) < spanOps/len(r.reqs) {
		into.Ops = append(into.Ops, opRecord{ID: res.RequestID.String(), Due: mono(due), Start: mono(start), End: mono(end), Timing: &res.Timing})
	}
	return true, end
}

// perRequester runs fn once per requester, concurrently, and merges the
// per-requester results.
func (r *discRig) perRequester(fn func(i int, d *core.Discoverer) segResult) (segResult, error) {
	parts := make([]segResult, len(r.reqs))
	var wg sync.WaitGroup
	for i, d := range r.reqs {
		wg.Add(1)
		go func(i int, d *core.Discoverer) {
			defer wg.Done()
			parts[i] = fn(i, d)
		}(i, d)
	}
	wg.Wait()
	var res segResult
	for _, p := range parts {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		res.Completed += p.Completed
		res.Lat = append(res.Lat, p.Lat...)
		res.TimerLate = append(res.TimerLate, p.TimerLate...)
		res.SchedLate = append(res.SchedLate, p.SchedLate...)
		res.Ops = append(res.Ops, p.Ops...)
		res.Responses += p.Responses
		res.Retransmits += p.Retransmits
		if p.Wall > res.Wall {
			res.Wall = p.Wall
		}
	}
	return res, r.kids.alive()
}

// closed has every requester issue its next discovery when the last returns.
func (r *discRig) closed(d time.Duration) (segResult, error) {
	start := time.Now()
	deadline := start.Add(d)
	return r.perRequester(func(_ int, disc *core.Discoverer) segResult {
		var res segResult
		for time.Now().Before(deadline) {
			r.discover(disc, time.Now(), &res)
		}
		res.Wall = time.Since(start)
		return res
	})
}

// open issues Rate discoveries per second, split evenly over the requesters,
// each on its own tick-aligned schedule.
func (r *discRig) open(d time.Duration) (segResult, error) {
	n := len(r.reqs)
	period := time.Duration(n) * time.Second / time.Duration(r.w.Rate)
	period -= period % tickPeriod
	start := time.Now()
	return r.perRequester(func(i int, disc *core.Discoverer) segResult {
		// Requesters are staggered so their operations do not start together.
		sched := newSchedule(wallClock{}, start.Add(time.Duration(i)*period/time.Duration(n)), period)
		res := segResult{Wall: d}
		for k := 0; k < int(d/period); k++ {
			due := sched.due(k)
			if ok, end := r.discover(disc, due, &res); ok {
				res.Lat = append(res.Lat, int64(end.Sub(due)))
			}
		}
		res.TimerLate, res.SchedLate = sched.timerLate, sched.schedLate
		return res
	})
}
