package collect

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
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
	// flightLinkCap bounds the profile refs remembered per (rule, node)
	// alert so /alerts links the evidence of the latest firing, not an
	// unbounded history.
	flightLinkCap = 6
	// pullTimeout bounds one scrape, download or goroutine-dump request to
	// a node; a CPU flight capture gets this on top of its sampling window.
	pullTimeout = 5 * time.Second
)

// profilePlane is the collector's profile subsystem: the store (a
// profile.Store, the same type a node's capturer keeps its captures in), the
// downloads of the captures every scrape lists, and the flight recorder
// capturing evidence when alerts fire.
type profilePlane struct {
	c          *Collector
	store      *profile.Store
	cpuSeconds int

	mu    sync.Mutex
	links map[string][]profile.Capture // rule+node → linked flight evidence
}

// flightCPUSeconds is how long the flight recorder samples a node's CPU when
// an alert fires: two scrape intervals in whole seconds, at least one.
func flightCPUSeconds(scrape time.Duration) int {
	return max(1, int(2*scrape/time.Second))
}

func newProfilePlane(c *Collector, store *profile.Store, cpuSeconds int) *profilePlane {
	return &profilePlane{c: c, store: store, cpuSeconds: cpuSeconds, links: make(map[string][]profile.Capture)}
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

// pull downloads the captures a scrape of node at addr listed (newest first)
// into the store, oldest first so eviction order is sane. The listing rides
// every scrape, which is how node-side captures survive the node: when a
// broker dies, its last profiles are already here.
func (pp *profilePlane) pull(node, addr string, refs []profile.Capture) {
	for i := len(refs) - 1; i >= 0; i-- {
		cp := refs[i]
		data, err := pp.get("http://"+addr+"/profiles/"+url.PathEscape(cp.ID), pullTimeout)
		if err != nil {
			pp.c.log.Debug("profile pull: download", "node", node, "id", cp.ID, "err", err)
			pp.c.profilePullErrs.Inc()
			continue
		}
		if _, err := pp.add(node, cp.Kind, cp.Trigger, cp.At, data); err != nil {
			pp.c.log.Warn("profile pull: store", "node", node, "id", cp.ID, "err", err)
		}
	}
}

// add stores one capture of node and counts it.
func (pp *profilePlane) add(node string, kind profile.Kind, trigger string, at time.Time, data []byte) (profile.Capture, error) {
	ref, err := pp.store.Add(profile.Capture{Node: node, Kind: kind, Trigger: trigger, At: at, Data: data})
	if err == nil {
		pp.c.profilesStored.Inc()
	}
	return ref, err
}

// get fetches url from a node, bounded by timeout, by the collector's
// context (cancelled on Close) and to 16 MiB of body — scrapes, profile
// downloads and flight captures alike.
func (pp *profilePlane) get(url string, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(pp.c.ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 16<<20))
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

// captureFlight pulls goroutine + CPU profiles from the alerted node's
// pprof endpoint and links them to the alert. When the node is unreachable
// (the deadman case: the process is gone), the most recent retained captures
// for that node become the linked evidence instead — that is exactly what
// pulling every scrape's captures was for.
func (pp *profilePlane) captureFlight(a health.Alert) {
	var refs []profile.Capture
	if base, ok := pp.c.nodeEndpoint(a.Node); ok {
		// Goroutine dump first: it is instant, so even if the CPU capture
		// times out the pileup evidence is saved.
		for _, f := range []struct {
			kind    profile.Kind
			url     string
			timeout time.Duration
		}{
			{profile.KindGoroutine, base + "/debug/pprof/goroutine?debug=1", pullTimeout},
			{profile.KindCPU, fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", base, pp.cpuSeconds),
				time.Duration(pp.cpuSeconds)*time.Second + pullTimeout},
		} {
			data, err := pp.get(f.url, f.timeout)
			if err != nil {
				pp.c.log.Debug("flight capture", "kind", string(f.kind), "node", a.Node, "rule", a.Rule, "err", err)
				continue
			}
			if ref, err := pp.add(a.Node, f.kind, "flight:"+a.Rule, time.Now(), data); err == nil {
				refs = append(refs, ref)
			}
		}
	}
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
