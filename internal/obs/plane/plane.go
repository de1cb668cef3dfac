// Package plane stands a node's telemetry up, hands it out and tears it down:
// one place that knows the order registry → process metrics → tracer →
// journal → exporter → capturer → HTTP endpoint → address announce, and the
// reverse on the way out. Every binary, every testbed node and the
// collector's prober run under one Plane; components see only the obs.Handle
// it hands out.
package plane

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"os"
	"sync"
	"time"

	"narada/internal/obs"
	"narada/internal/obs/profile"
)

// Config parameterises a Plane: the operator's Flags plus what the binary
// knows about itself. The zero value is a process-wide plane that neither
// exports nor serves: a registry with process metrics, a tracer, a journal
// and an info-level stderr logger.
type Config struct {
	Flags
	// Prog prefixes the operator log lines the plane prints through the
	// standard logger ("broker: telemetry on http://…/metrics"); empty
	// prints none.
	Prog string
	// Node is this node's identity on the export stream.
	Node string
	// ExportInterval is the metric-snapshot period (0 = the exporter's 1s).
	ExportInterval time.Duration
	// Offset reports the node's estimated clock offset from UTC
	// (ntptime.Service.Offset), stamped on every export packet.
	Offset func() time.Duration
	// Clock stamps journal events; nil is time.Now (testbed nodes pass
	// their skewed model clock).
	Clock func() time.Time

	// Registry, when set, is a registry the caller already exposes some
	// other way (the collector lends its own to its prober): components
	// record into it, and the plane neither adds process metrics to it nor
	// ships it. Nil gives the plane its own, which the exporter ships.
	Registry *obs.Registry
	// Embedded marks a plane that shares its OS process with others (a
	// testbed node, the prober): its registry carries no process metrics and
	// it builds no logger — spans and capturer warnings go unlogged.
	Embedded bool
	// MetricsOnly drops the tracer, journal and capturer, leaving /metrics,
	// /healthz and pprof — nbexp and obscollect, which have no node identity
	// to trace or journal under.
	MetricsOnly bool
}

// Plane is one node's running telemetry. Start it, give its Handle to the
// component, late-bind what only exists afterwards (SetFlows, Serve), and
// Close it after the component has stopped. Those calls belong to the one
// goroutine that owns the node's lifecycle; the Handle is for everyone.
type Plane struct {
	cfg    Config
	handle obs.Handle
	exp    *obs.Exporter     // nil without ExportAddr
	srv    *obs.Server       // nil until Serve binds
	prof   *profile.Capturer // nil until Serve binds

	closeOnce sync.Once
}

// Start builds the plane's recorders and, with ExportAddr, dials the
// collector. Nothing listens yet: Serve binds the HTTP endpoint once the
// component's metric families are registered.
func Start(cfg Config) (*Plane, error) {
	profile.SetRuntimeRates(cfg.MutexFraction, cfg.BlockRate)
	p := &Plane{cfg: cfg}
	h := obs.Handle{Metrics: cfg.Registry}
	if !cfg.Embedded {
		level, err := obs.ParseLevel(cfg.LogLevel)
		if err != nil {
			return nil, err
		}
		h.Logger = obs.NewLogger(os.Stderr, level)
	}
	var shipped *obs.Registry // what the exporter snapshots: never a borrowed registry
	if h.Metrics == nil {
		h.Metrics = obs.NewRegistry()
		shipped = h.Metrics
		if !cfg.Embedded {
			obs.RegisterProcessMetrics(h.Metrics)
		}
	}
	if !cfg.MetricsOnly {
		h.Tracer = obs.NewTracer(0, h.Logger)
		h.Journal = obs.NewJournal(0, cfg.Clock)
	}
	if cfg.ExportAddr != "" {
		exp, err := obs.NewExporter(obs.ExporterConfig{
			Addr:            cfg.ExportAddr,
			Node:            cfg.Node,
			Offset:          cfg.Offset,
			Registry:        shipped,
			Journal:         h.Journal,
			MetricsInterval: cfg.ExportInterval,
		})
		if err != nil {
			return nil, fmt.Errorf("obs export: %w", err)
		}
		p.exp = exp
		h.Tracer.SetExporter(exp)
		p.logf("exporting observability to udp://%s", cfg.ExportAddr)
	}
	p.handle = h
	return p, nil
}

// Handle returns what components under this plane report through.
func (p *Plane) Handle() obs.Handle { return p.handle }

// Exporter returns the plane's exporter: nil without ExportAddr or on a nil
// plane, and every exporter method is nil-safe.
func (p *Plane) Exporter() *obs.Exporter {
	if p == nil {
		return nil
	}
	return p.exp
}

// SetFlows binds the flow-table snapshot shipped with every metrics tick —
// the broker's, which does not exist yet when the plane starts. A plane that
// does not export (or a nil one) ignores it.
func (p *Plane) SetFlows(f func() []obs.FlowSnapshot) { p.Exporter().SetFlows(f) }

// Serve binds the telemetry HTTP endpoint on TelemetryAddr, starts the
// profile capturer mounted on it and announces the bound address on the
// export stream, so the collector can pull profiles and flight-record this
// node. It does nothing without a TelemetryAddr.
func (p *Plane) Serve() error {
	if p.cfg.TelemetryAddr == "" {
		return nil
	}
	var prof *profile.Capturer
	var mounts map[string]http.Handler
	if !p.cfg.MetricsOnly {
		prof = profile.New(profile.Config{
			Interval: p.cfg.ProfileEvery,
			Mutex:    p.cfg.MutexFraction > 0,
			Block:    p.cfg.BlockRate > 0,
			Logger:   p.handle.Logger,
		})
		prof.Start()
		mounts = prof.Mount()
	}
	srv, err := obs.ServeWith(p.cfg.TelemetryAddr, p.handle.Metrics, p.handle.Tracer, mounts)
	if err != nil {
		if prof != nil {
			_ = prof.Close() // stops the capture loop; nothing to report
		}
		return fmt.Errorf("telemetry: %w", err)
	}
	p.srv, p.prof = srv, prof
	p.logf("telemetry on http://%s/metrics", srv.Addr())
	if prof != nil && p.cfg.ProfileEvery > 0 {
		p.logf("capturing profiles every %s", p.cfg.ProfileEvery)
	}
	p.exp.AnnounceTelemetry(srv.Addr(), prof != nil)
	return nil
}

// Addr returns the bound telemetry HTTP address ("" before Serve).
func (p *Plane) Addr() string {
	if p.srv == nil {
		return ""
	}
	return p.srv.Addr()
}

// Close tears the plane down after its component has stopped producing:
// the HTTP endpoint drains first, then the capturer stops, and the exporter
// closes last — its Close flushes buffered spans and ships a final metric,
// flow and journal snapshot, so the collector keeps the node's last moments
// instead of losing them with the socket. Safe to call more than once and on
// a nil plane.
func (p *Plane) Close() {
	if p == nil {
		return
	}
	p.closeOnce.Do(func() {
		if p.srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = p.srv.Shutdown(ctx) // a scrape still in flight at the deadline is abandoned
			cancel()
		}
		if p.prof != nil {
			_ = p.prof.Close() // always nil
		}
		if p.exp != nil {
			_ = p.exp.Close() // always nil
			p.logf("final telemetry snapshot exported")
		}
	})
}

func (p *Plane) logf(format string, args ...any) {
	if p.cfg.Prog != "" {
		log.Printf(p.cfg.Prog+": "+format, args...)
	}
}
