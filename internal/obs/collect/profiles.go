package collect

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"narada/internal/obs/collect/health"
	"narada/internal/obs/profile"
)

// Profile-plane bounds.
const (
	// profileMaxCount bounds the collector's profile store by count.
	profileMaxCount = 256
	// profileMaxBytes bounds the store by total payload size (64 MiB).
	profileMaxBytes = 64 << 20
	// maxCaptureBytes bounds one capture: a larger one is dropped whole, as
	// a truncated pprof profile is garbage.
	maxCaptureBytes = 4 << 20
	// flightLinkCap bounds the profile refs remembered per (rule, node)
	// alert so /alerts links the evidence of the latest firing, not an
	// unbounded history.
	flightLinkCap = 6
	// pullTimeout bounds one scrape or profile request to a node; a CPU
	// profile gets this on top of its sampling window.
	pullTimeout = 5 * time.Second
	// periodicCPUSeconds is a periodic round's CPU window. A round takes it
	// only when it is at most a quarter of the node's period, so profiling
	// never samples the node more than a quarter of the time; pprof takes
	// whole seconds, so a period under 4s gets no CPU profile.
	periodicCPUSeconds = 1
)

// profilePlane is the collector's profile subsystem: the one store every
// profile lands in, the periodic rounds the nodes' scrapes ask for, and the
// flight recorder capturing evidence when alerts fire. Both take profiles
// the one way, capture, from the node's net/http/pprof endpoints.
type profilePlane struct {
	c          *Collector
	store      *profile.Store
	cpuSeconds int // a flight capture's CPU window

	mu    sync.Mutex
	links map[string][]profile.Capture // rule+node → linked flight evidence
	nodes map[string]*nodeProfiler
}

// nodeProfiler is what the profile plane keeps per node.
type nodeProfiler struct {
	busy  sync.Mutex // held through a capture: one process's CPU profiles never overlap
	last  time.Time  // start of the last periodic round, or first announcement
	round bool       // a periodic round is queued or running
}

// flightCPUSeconds is how long the flight recorder samples a node's CPU when
// an alert fires: two scrape intervals in whole seconds, at least one.
func flightCPUSeconds(scrape time.Duration) int {
	return max(1, int(2*scrape/time.Second))
}

func newProfilePlane(c *Collector, store *profile.Store, cpuSeconds int) *profilePlane {
	return &profilePlane{c: c, store: store, cpuSeconds: cpuSeconds,
		links: make(map[string][]profile.Capture), nodes: make(map[string]*nodeProfiler)}
}

// nodeEndpoint returns the base URL a node was scraped at.
func (c *Collector) nodeEndpoint(node string) (base string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ns := c.nodes[node]
	if ns == nil || ns.telemetryAddr == "" {
		return "", false
	}
	return "http://" + ns.telemetryAddr, true
}

// nodeLocked returns node's profiler, making it on first use. Requires pp.mu.
func (pp *profilePlane) nodeLocked(node string) *nodeProfiler {
	np := pp.nodes[node]
	if np == nil {
		np = &nodeProfiler{}
		pp.nodes[node] = np
	}
	return np
}

// schedule is called with every scrape of a node that asks to be profiled
// every period: it starts the node's next periodic round once a period has
// passed since the last one started, unless that one is still running. The
// scrapes are the clock, so a round lands within a scrape interval of its
// time; the first lands a period after the node first asked. A round takes
// goroutine, heap and the contention kinds the node turned on, then the CPU
// profile when the period allows one.
func (pp *profilePlane) schedule(node string, every time.Duration, contention []profile.Kind) {
	now := time.Now()
	pp.mu.Lock()
	np := pp.nodeLocked(node)
	if np.last.IsZero() {
		np.last = now
	}
	start := !np.round && now.Sub(np.last) >= every
	if start {
		np.round, np.last = true, now
	}
	pp.mu.Unlock()
	if !start {
		return
	}
	kinds := []profile.Kind{profile.KindGoroutine, profile.KindHeap}
	for _, k := range contention {
		if k == profile.KindMutex || k == profile.KindBlock {
			kinds = append(kinds, k)
		}
	}
	cpu := 0
	if every >= 4*periodicCPUSeconds*time.Second {
		cpu = periodicCPUSeconds
	}
	pp.c.spawn(func() {
		pp.capture(node, "periodic", cpu, kinds...)
		pp.mu.Lock()
		np.round = false
		pp.mu.Unlock()
	})
}

// capture takes the text profiles kinds (debug=1) and then, for cpuSeconds
// > 0, a CPU profile of node from its pprof endpoints, and stores each under
// trigger. The text profiles are instant and go first, so their evidence is
// saved even when the CPU window times out. Captures of one node run one at
// a time: a flight capture arriving during a periodic round waits for it. A
// failed request, or a body over maxCaptureBytes, stores nothing and is
// counted.
func (pp *profilePlane) capture(node, trigger string, cpuSeconds int, kinds ...profile.Kind) []profile.Capture {
	base, ok := pp.c.nodeEndpoint(node)
	if !ok {
		return nil
	}
	pp.mu.Lock()
	np := pp.nodeLocked(node)
	pp.mu.Unlock()
	np.busy.Lock()
	defer np.busy.Unlock()
	var refs []profile.Capture
	take := func(kind profile.Kind, url string, timeout time.Duration) {
		data, err := pp.c.get(url, timeout, maxCaptureBytes)
		if err != nil {
			pp.c.log.Debug("profile capture", "node", node, "kind", string(kind), "trigger", trigger, "err", err)
			pp.c.profilePullErrs.Inc()
			return
		}
		ref, err := pp.store.Add(profile.Capture{Node: node, Kind: kind, Trigger: trigger, At: time.Now(), Data: data})
		if err != nil {
			pp.c.log.Warn("profile capture: store", "node", node, "kind", string(kind), "err", err)
			return
		}
		pp.c.profilesStored.Inc()
		refs = append(refs, ref)
	}
	for _, k := range kinds {
		take(k, base+"/debug/pprof/"+string(k)+"?debug=1", pullTimeout)
	}
	if cpuSeconds > 0 {
		take(profile.KindCPU, fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", base, cpuSeconds),
			time.Duration(cpuSeconds)*time.Second+pullTimeout)
	}
	return refs
}

// Publish implements health.Sink: every alert that transitions to firing
// triggers a flight capture of the affected node. The capture runs async —
// sinks are called from the evaluation tick and profile capture takes
// seconds — inside the collector's wait group, so Close returns only once no
// capture can touch the store any more, and none starts after Close.
func (pp *profilePlane) Publish(a health.Alert) {
	if a.State != health.StateFiring || a.Node == "" || a.Node == "obscollect" {
		return
	}
	pp.c.spawn(func() { pp.captureFlight(a) })
}

// captureFlight captures goroutine + CPU profiles of the alerted node and
// links them to the alert. When the node is unreachable (the deadman case:
// the process is gone), the most recent retained captures for that node
// become the linked evidence instead — the periodic rounds took them while
// it lived.
func (pp *profilePlane) captureFlight(a health.Alert) {
	refs := pp.capture(a.Node, "flight:"+a.Rule, pp.cpuSeconds, profile.KindGoroutine)
	if len(refs) == 0 {
		// Node unreachable — fall back to its freshest retained captures.
		refs = pp.store.List(profile.Filter{Node: a.Node})
		if len(refs) > 2 {
			refs = refs[:2]
		}
		pp.c.log.Info("flight capture: node unreachable, linking retained profiles",
			"node", a.Node, "rule", a.Rule, "profiles", len(refs))
	} else {
		pp.c.log.Info("flight capture complete", "node", a.Node, "rule", a.Rule, "profiles", len(refs))
	}
	if len(refs) == 0 {
		return
	}
	key := a.Rule + "\xff" + a.Node
	pp.mu.Lock()
	linked := append(pp.links[key], refs...)
	if len(linked) > flightLinkCap {
		linked = linked[len(linked)-flightLinkCap:]
	}
	pp.links[key] = linked
	pp.mu.Unlock()
}

// linksFor returns the flight-recorder evidence linked to one (rule, node)
// alert, newest first.
func (pp *profilePlane) linksFor(rule, node string) []profile.Capture {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	linked := pp.links[rule+"\xff"+node]
	if len(linked) == 0 {
		return nil
	}
	out := append([]profile.Capture(nil), linked...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.After(out[j].At) })
	return out
}

// Profiles returns matching stored profile refs, newest first — testbed and
// smoke assertions read through this.
func (c *Collector) Profiles(f profile.Filter) []profile.Capture {
	return c.profiles.store.List(f)
}
