package collect

import (
	"errors"
	"log/slog"
	"sync"
	"time"

	"narada/internal/core"
	"narada/internal/ntptime"
	"narada/internal/obs"
	"narada/internal/obs/plane"
	"narada/internal/transport"
)

// ProberNodeName is the identity the synthetic prober uses on the fabric —
// its spans and SLIs are labelled with it.
const ProberNodeName = "obsprobe"

// probeBindIP is the local interface probe traffic leaves from.
const probeBindIP = "127.0.0.1"

// ProbeConfig parameterises a Prober.
type ProbeConfig struct {
	// Interval between synthetic discoveries.
	Interval time.Duration
	// BDNAddrs to discover through (the fabric under test).
	BDNAddrs []string
	// CollectWindow bounds each probe's response collection (default 1s —
	// probes favour tight SLIs over exhaustive response sets).
	CollectWindow time.Duration
	// AckTimeout bounds each probe's wait for a BDN acknowledgement (0 uses
	// the discoverer default of 1s). It also bounds how long Close can block
	// on an in-flight probe against an unreachable fabric, so tests and
	// fast-shutdown deployments set it low.
	AckTimeout time.Duration
	// Export, when non-empty, is the collector UDP address the prober's own
	// spans are exported to — normally the owning collector's Addr(), which
	// is how probe traces become visible end to end.
	Export string
	// Registry receives the prober's SLIs (probe run counts and latency) —
	// normally the owning collector's registry, which serves them on the
	// federated /metrics directly. When nil the prober keeps a private
	// registry and ships snapshots through the export plane instead (the
	// standalone-prober shape, probing one fabric for a remote collector).
	Registry *obs.Registry
	// Logger receives per-probe outcomes; nil discards them.
	Logger *slog.Logger
}

// Prober runs periodic end-to-end synthetic discoveries against a live
// fabric, recording success-rate and latency SLIs — regressions surface
// without real client traffic. Probe traces export to the collector like any
// other requester's, so every probe is inspectable at /traces/{id}.
type Prober struct {
	cfg   ProbeConfig
	disc  *core.Discoverer
	plane *plane.Plane
	log   *slog.Logger

	runsOK   *obs.Counter
	runsFail *obs.Counter
	latency  *obs.Histogram

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewProber assembles a prober; call Run to start the probe loop.
func NewProber(cfg ProbeConfig) (*Prober, error) {
	if cfg.Interval <= 0 {
		return nil, errors.New("collect: probe Interval must be positive")
	}
	if len(cfg.BDNAddrs) == 0 {
		return nil, errors.New("collect: probe needs at least one BDN address")
	}
	if cfg.CollectWindow <= 0 {
		cfg.CollectWindow = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Nop()
	}

	node := transport.NewRealNode(probeBindIP, nil)
	// The prober runs on the collector host's honest wall clock: zero true
	// skew, and the residual models a real NTP peering.
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()

	// A private registry (cfg.Registry nil) ships its SLI snapshots over the
	// wire; a collector-owned one is already on the federated exposition,
	// and exporting it back would duplicate every series — the plane never
	// ships a borrowed registry.
	pl, err := plane.Start(plane.Config{
		Flags:          plane.Flags{ExportAddr: cfg.Export},
		Node:           ProberNodeName,
		ExportInterval: cfg.Interval,
		Offset:         ntp.Offset,
		Registry:       cfg.Registry,
		Embedded:       true,
	})
	if err != nil {
		return nil, err
	}
	p := &Prober{cfg: cfg, plane: pl, log: cfg.Logger.With("component", "obsprobe"), closed: make(chan struct{})}
	p.disc = core.NewDiscoverer(node, ntp, core.Config{
		NodeName:      ProberNodeName,
		BDNAddrs:      cfg.BDNAddrs,
		CollectWindow: cfg.CollectWindow,
		AckTimeout:    cfg.AckTimeout,
		Handle:        pl.Handle(),
	})

	reg := pl.Handle().Metrics
	who := obs.L("node", ProberNodeName)
	const runs = "narada_probe_runs_total"
	const runsHelp = "Synthetic discovery probes, by outcome."
	p.runsOK = reg.Counter(runs, runsHelp, who, obs.L("outcome", "ok"))
	p.runsFail = reg.Counter(runs, runsHelp, who, obs.L("outcome", "error"))
	p.latency = reg.Histogram("narada_probe_latency_seconds",
		"End-to-end synthetic discovery latency.", nil, who)
	return p, nil
}

// Run starts the probe loop: one immediate probe, then one per interval.
func (p *Prober) Run() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		ticker := time.NewTicker(p.cfg.Interval)
		defer ticker.Stop()
		p.probe()
		for {
			select {
			case <-ticker.C:
				p.probe()
			case <-p.closed:
				return
			}
		}
	}()
}

func (p *Prober) probe() {
	start := time.Now()
	res, err := p.disc.Discover()
	elapsed := time.Since(start)
	p.latency.ObserveDuration(elapsed)
	if err != nil {
		p.runsFail.Inc()
		p.log.Warn("probe failed", "err", err, "elapsed", elapsed)
		return
	}
	p.runsOK.Inc()
	p.log.Info("probe ok", "selected", res.Selected.LogicalAddress,
		"responses", len(res.Responses), "elapsed", elapsed,
		"trace", res.RequestID.String())
}

// Close stops the probe loop and flushes the prober's exporter.
func (p *Prober) Close() error {
	p.closeOnce.Do(func() {
		close(p.closed)
		p.wg.Wait()
		p.disc.Close()
		p.plane.Close()
	})
	return nil
}
