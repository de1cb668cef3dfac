// Package plane stands a node's telemetry up, hands it out and tears it down:
// one place that knows the order registry → process metrics → tracer →
// journal → HTTP endpoint, and the reverse on the way out. Every
// binary, every testbed node, the collector and its prober run under one
// Plane; components see only the obs.Handle it hands out, and a collector
// sees only the Scrape document it builds.
package plane

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"narada/internal/obs"
)

// Config parameterises a Plane: the operator's Flags plus what the binary
// knows about itself. The zero value is a process-wide plane that does not
// serve: a registry with process metrics, a tracer, a journal and an
// info-level stderr logger.
type Config struct {
	Flags
	// Prog prefixes the operator log lines the plane prints through the
	// standard logger ("broker: telemetry on http://…/metrics"); empty
	// prints none.
	Prog string
	// Node is this node's identity in its scrape document.
	Node string
	// Offset reports the node's estimated clock offset from UTC
	// (ntptime.Service.Offset), carried in every scrape document.
	Offset func() time.Duration
	// Clock stamps journal events; nil is time.Now (testbed nodes pass
	// their skewed model clock).
	Clock func() time.Time

	// Registry, when set, is a registry the caller already exposes some
	// other way (the collector's own): components record into it, and the
	// plane neither adds process metrics to it nor puts it in a scrape. Nil
	// gives the plane its own, which every scrape carries.
	Registry *obs.Registry
	// Embedded marks a plane that shares its OS process with others (a
	// testbed node, the prober): its registry carries no process metrics and
	// it builds no logger — spans go unlogged.
	Embedded bool
	// MetricsOnly drops the tracer and journal, leaving /metrics, /healthz
	// and pprof — nbexp and obscollect, which have no node identity to trace
	// or journal under.
	MetricsOnly bool
}

// lastScrapeWait bounds how long Close waits for a collector's last scrape.
const lastScrapeWait = 2 * time.Second

// Plane is one node's running telemetry. Start it, give its Handle to the
// component, late-bind what only exists afterwards (SetFlows, Serve), and
// Close it after the component has stopped. Those calls belong to the one
// goroutine that owns the node's lifecycle; the Handle is for everyone.
type Plane struct {
	cfg    Config
	handle obs.Handle
	own    *obs.Registry // what a scrape carries: never a borrowed registry
	boot   int64         // Unix ns of Start: a new value tells a collector the node restarted
	flows  atomic.Pointer[func() []obs.FlowSnapshot]
	srv    *obs.Server // nil until Serve binds

	scraped   atomic.Bool // a collector has read /telemetry
	mu        sync.Mutex
	final     chan struct{} // made by Close, closed by the first scrape served after
	finalOnce sync.Once
	closeOnce sync.Once
}

// Start builds the plane's recorders. Nothing listens yet: Serve binds the
// HTTP endpoint once the component's metric families are registered.
func Start(cfg Config) (*Plane, error) {
	// The -mutex-profile-fraction / -block-profile-rate rates are process
	// wide; zero leaves that profiler off, its default.
	if cfg.MutexFraction > 0 {
		runtime.SetMutexProfileFraction(cfg.MutexFraction)
	}
	if cfg.BlockRate > 0 {
		runtime.SetBlockProfileRate(cfg.BlockRate)
	}
	p := &Plane{cfg: cfg, boot: time.Now().UnixNano()}
	h := obs.Handle{Metrics: cfg.Registry}
	if !cfg.Embedded {
		level, err := obs.ParseLevel(cfg.LogLevel)
		if err != nil {
			return nil, err
		}
		h.Logger = obs.NewLogger(os.Stderr, level)
	}
	if h.Metrics == nil {
		h.Metrics = obs.NewRegistry()
		p.own = h.Metrics
		if !cfg.Embedded {
			obs.RegisterProcessMetrics(h.Metrics)
		}
	}
	if !cfg.MetricsOnly {
		h.Tracer = obs.NewTracer(0, h.Logger)
		h.Journal = obs.NewJournal(0, cfg.Clock)
		if cfg.TelemetryAddr != "" || cfg.Embedded {
			// A collector reads this plane, over HTTP or in process.
			h.Tracer.KeepSpans(obs.DefaultSpanLog)
		}
	}
	p.handle = h
	return p, nil
}

// Handle returns what components under this plane report through.
func (p *Plane) Handle() obs.Handle { return p.handle }

// SetFlows binds the flow-table snapshot every scrape carries — the broker's,
// which does not exist yet when the plane starts. A no-op on a nil plane.
func (p *Plane) SetFlows(f func() []obs.FlowSnapshot) {
	if p != nil {
		p.flows.Store(&f)
	}
}

// Serve binds the telemetry HTTP endpoint on TelemetryAddr — the node's
// /telemetry document and pprof among the rest. It does nothing without a
// TelemetryAddr.
func (p *Plane) Serve() error {
	if p.cfg.TelemetryAddr == "" {
		return nil
	}
	srv, err := obs.ServeWith(p.cfg.TelemetryAddr, p.handle.Metrics, p.handle.Tracer,
		map[string]http.Handler{"/telemetry": http.HandlerFunc(p.serveScrape)})
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	p.srv = srv
	p.logf("telemetry on http://%s/metrics", srv.Addr())
	if p.cfg.ProfileEvery > 0 {
		p.logf("asking collectors for profiles every %s", p.cfg.ProfileEvery)
	}
	return nil
}

// Addr returns the bound telemetry HTTP address ("" before Serve).
func (p *Plane) Addr() string {
	if p.srv == nil {
		return ""
	}
	return p.srv.Addr()
}

// serveScrape answers GET /telemetry?since=<next>. The first one served after
// Close began is the node's last, and releases Close.
func (p *Plane) serveScrape(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	final := p.final
	p.mu.Unlock()
	body, err := json.Marshal(p.Scrape(r.URL.Query().Get("since")))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
	p.scraped.Store(true)
	if final != nil {
		p.finalOnce.Do(func() { close(final) })
	}
}

// Close tears the plane down after its component has stopped producing. A
// plane a collector has scraped first waits, up to lastScrapeWait, for one
// more scrape, so the collector keeps the node's last snapshot and node_stop
// instead of losing them with the endpoint; one nobody scrapes closes at
// once. Then the HTTP endpoint drains. Safe to call more than once and on a
// nil plane.
func (p *Plane) Close() {
	if p == nil {
		return
	}
	p.closeOnce.Do(func() {
		if p.srv != nil {
			if p.scraped.Load() {
				final := make(chan struct{})
				p.mu.Lock()
				p.final = final
				p.mu.Unlock()
				select {
				case <-final:
					p.logf("final telemetry scraped")
				case <-time.After(lastScrapeWait):
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = p.srv.Shutdown(ctx) // a scrape still in flight at the deadline is abandoned
			cancel()
		}
	})
}

func (p *Plane) logf(format string, args ...any) {
	if p.cfg.Prog != "" {
		log.Printf(p.cfg.Prog+": "+format, args...)
	}
}
