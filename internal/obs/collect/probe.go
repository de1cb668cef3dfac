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

// probeWindow bounds each probe's response collection: probes favour tight
// SLIs over exhaustive response sets.
const probeWindow = time.Second

// ProbeConfig parameterises a Prober.
type ProbeConfig struct {
	// Interval between synthetic discoveries.
	Interval time.Duration
	// BDNAddrs to discover through (the fabric under test).
	BDNAddrs []string
	// AckTimeout bounds each probe's wait for a BDN acknowledgement (0 uses
	// the discoverer default of 1s). It also bounds how long Close can block
	// on an in-flight probe against an unreachable fabric, so tests and
	// fast-shutdown deployments set it low.
	AckTimeout time.Duration
	// Logger receives per-probe outcomes; nil discards them.
	Logger *slog.Logger
}

// Prober runs periodic end-to-end synthetic discoveries against a live
// fabric, recording success-rate and latency SLIs — regressions surface
// without real client traffic. Its collector scrapes its plane in process,
// like any requester's, so every probe is inspectable at /traces/{id} and
// its SLIs land in the series store the burn-rate rules read.
type Prober struct {
	cfg     ProbeConfig
	disc    *core.Discoverer
	plane   *plane.Plane
	unwatch func() // the collector's WatchPlane stop
	log     *slog.Logger

	runsOK   *obs.Counter
	runsFail *obs.Counter
	latency  *obs.Histogram

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewProber assembles a prober this collector scrapes; call Run to start the
// probe loop.
func (c *Collector) NewProber(cfg ProbeConfig) (*Prober, error) {
	if cfg.Interval <= 0 {
		return nil, errors.New("collect: probe Interval must be positive")
	}
	if len(cfg.BDNAddrs) == 0 {
		return nil, errors.New("collect: probe needs at least one BDN address")
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Nop()
	}

	node := transport.NewRealNode(probeBindIP, nil)
	// The prober runs on the collector host's honest wall clock: zero true
	// skew, and the residual models a real NTP peering.
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()

	pl, err := plane.Start(plane.Config{Node: ProberNodeName, Offset: ntp.Offset, Embedded: true})
	if err != nil {
		return nil, err
	}
	p := &Prober{cfg: cfg, plane: pl, log: cfg.Logger.With("component", "obsprobe"), closed: make(chan struct{})}
	p.disc = core.NewDiscoverer(node, ntp, core.Config{
		NodeName:      ProberNodeName,
		BDNAddrs:      cfg.BDNAddrs,
		CollectWindow: probeWindow,
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
	p.unwatch = c.WatchPlane(pl)
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

// Close stops the probe loop; the collector scrapes the prober's plane one
// last time and stops.
func (p *Prober) Close() error {
	p.closeOnce.Do(func() {
		close(p.closed)
		p.wg.Wait()
		p.disc.Close()
		p.unwatch()
		p.plane.Close()
	})
	return nil
}
