// Command obscollect runs the fabric-wide observability collector: it
// scrapes the /telemetry document every broker, BDN and requester in -nodes
// serves on its -telemetry-addr, and serves the assembled view over HTTP —
//
//	/metrics       federated Prometheus exposition (node label per source)
//	/traces        retained cross-node trace summaries
//	/traces/{id}   one assembled trace, spans in NTP-aligned causal order;
//	               message traces carry per-hop queue-wait breakdowns
//	/flows         per-topic flow accounting (top-k per node + fabric merge)
//	/fabric        per-node liveness, clock offset, load and latency SLIs
//	/alerts        health-alert list (deadman, clock drift, egress, SLO burn,
//	               delivery-latency burn, drop ratio), each linked to its
//	               surrounding control-plane event window
//	/events        merged control-plane event journal (link churn, ad
//	               lifecycle, alerts, faults), filterable by node/type/since
//	/topology      fabric graph reconstructed from the journal; ?at=<time>
//	               replays the topology as of any past instant
//	/query         range queries over the retained multi-resolution series
//	/profiles      pulled + flight-recorded pprof captures, downloadable by
//	               id; /profiles/diff renders a text-mode site diff
//
// Every node is scraped each -scrape-interval; each scrape also feeds the
// in-memory time-series store and the health engine, which evaluates
// deadman / clock-drift / egress / SLO burn-rate rules each -health-interval
// and publishes alert transitions to the log and, with -alert-webhook, to a
// JSON webhook.
//
// With -probe-interval it also runs the synthetic prober: periodic
// end-to-end discoveries against the live fabric whose traces and
// success-rate/latency SLIs land in this collector.
//
// Usage:
//
//	obscollect -nodes 127.0.0.1:9401,127.0.0.1:9402 -http 127.0.0.1:9311
//	obscollect -nodes 127.0.0.1:9401 -http :9311 -probe-interval 10s -probe-bdn 127.0.0.1:7000
//	obscollect -nodes 127.0.0.1:9401 -http :9311 -deadman-intervals 3 -alert-webhook http://ops/hook
//
// On SIGINT/SIGTERM the prober stops first, then the collector (flushing
// still-firing alerts to the sinks), then the HTTP server drains.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"narada/internal/obs/collect"
	"narada/internal/obs/collect/health"
	"narada/internal/obs/plane"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("obscollect: %v", err)
	}
	log.Print("obscollect: drained")
}

func run() error {
	var (
		nodes         = flag.String("nodes", "", "comma-separated telemetry addrs (host:port) of the nodes to scrape")
		httpAddr      = flag.String("http", "127.0.0.1:9311", "HTTP listen addr for /metrics, /traces, /fabric, /alerts, /events, /topology, /query")
		traceCap      = flag.Int("trace-capacity", collect.DefaultTraceCapacity, "assembled traces retained (oldest evicted)")
		eventCap      = flag.Int("event-capacity", collect.DefaultEventCapacity, "control-plane events retained per node (oldest evicted)")
		probeInterval = flag.Duration("probe-interval", 0, "synthetic discovery probe interval (0 = no prober)")
		probeBDN      = flag.String("probe-bdn", "", "comma-separated BDN stream addrs the prober discovers through")
		probeWindow   = flag.Duration("probe-window", time.Second, "per-probe response collection window")

		healthInterval = flag.Duration("health-interval", time.Second, "health rule evaluation period")
		scrapeInterval = flag.Duration("scrape-interval", time.Second, "how often every node is scraped (deadman unit of silence)")
		deadmanAfter   = flag.Int("deadman-intervals", 3, "scrape intervals without a successful scrape before a node is declared vanished")
		clockEnvelope  = flag.Duration("clock-envelope", 20*time.Millisecond, "acceptable NTP clock-offset envelope (±)")
		sloTarget      = flag.Float64("slo-target", 0.99, "probe success-rate SLO for burn-rate alerting")
		latencySLO     = flag.Duration("latency-slo", time.Second, "probe latency SLO (slower probes burn latency budget)")
		deliveryTarget = flag.Float64("delivery-slo-target", 0.99, "delivery-latency SLO target for burn-rate alerting")
		deliverySLO    = flag.Duration("delivery-latency-slo", 100*time.Millisecond, "end-to-end delivery latency SLO (slower deliveries burn budget)")
		dropRatioMax   = flag.Float64("drop-ratio-max", 0.01, "egress drops / delivery attempts ratio that fires drop_ratio")
		dropMinVolume  = flag.Float64("drop-min-volume", 100, "delivery attempts per window before drop_ratio may fire")
		pendingFor     = flag.Duration("alert-pending-for", 0, "how long a violation must persist before firing")
		webhook        = flag.String("alert-webhook", "", "URL POSTed one JSON document per alert transition (optional)")

		profileDir   = flag.String("profile-dir", "", "spool pulled and flight-recorded profiles to this directory ('' = in-memory only)")
		profileCount = flag.Int("profile-max-count", collect.DefaultProfileMaxCount, "profiles retained before oldest eviction")
		profileBytes = flag.Int64("profile-max-bytes", collect.DefaultProfileMaxBytes, "total profile bytes retained before oldest eviction")
		flightCPU    = flag.Int("flight-cpu-seconds", collect.DefaultFlightCPUSeconds, "CPU sampling window of an alert-triggered flight capture")
		noFlight     = flag.Bool("no-flight-recorder", false, "disable alert-triggered profile capture")
		tf           = plane.RegisterFlags(flag.CommandLine, plane.FlagProfileRates|plane.FlagLogLevel, false)
	)
	flag.Lookup("mutex-profile-fraction").Usage = "record ~1/N mutex contention events in this process (0 = off)"
	flag.Lookup("block-profile-rate").Usage = "record goroutine blocking events >= N ns in this process (0 = off)"
	flag.Parse()

	// The collector's own plane: logger, contention-profiling rates and
	// process metrics on the registry its federated /metrics serves. Its
	// HTTP surface is the collector's handler below, not the node endpoint.
	p, err := plane.Start(plane.Config{Flags: *tf, Prog: "obscollect", MetricsOnly: true})
	if err != nil {
		return err
	}
	defer p.Close()
	logger := p.Handle().Logger

	hc := &health.Config{
		ScrapeInterval:     *scrapeInterval,
		DeadmanIntervals:   *deadmanAfter,
		ClockEnvelope:      *clockEnvelope,
		SLOTarget:          *sloTarget,
		LatencySLO:         *latencySLO,
		DeliverySLOTarget:  *deliveryTarget,
		DeliveryLatencySLO: *deliverySLO,
		DropRatioMax:       *dropRatioMax,
		DropMinVolume:      *dropMinVolume,
		PendingFor:         *pendingFor,
	}
	hc.Sinks = append(hc.Sinks, health.NewLogSink(logger))
	if *webhook != "" {
		hc.Sinks = append(hc.Sinks, health.NewWebhookSink(*webhook, 0, logger))
	}

	col, err := collect.New(collect.Config{
		TraceCapacity:         *traceCap,
		EventCapacity:         *eventCap,
		Logger:                logger,
		Registry:              p.Handle().Metrics,
		Health:                hc,
		HealthInterval:        *healthInterval,
		ProfileDir:            *profileDir,
		ProfileMaxCount:       *profileCount,
		ProfileMaxBytes:       *profileBytes,
		FlightCPUSeconds:      *flightCPU,
		DisableFlightRecorder: *noFlight,
	})
	if err != nil {
		return err
	}
	for _, addr := range splitNonEmpty(*nodes) {
		col.Watch(addr)
	}
	log.Printf("obscollect: scraping %s every %s", *nodes, *scrapeInterval)

	lis, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		_ = col.Close()
		return fmt.Errorf("http listen: %w", err)
	}
	srv := &http.Server{Handler: col.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(lis)
	}()
	log.Printf("obscollect: serving http://%s/metrics /traces /flows /fabric /alerts /events /topology /query /profiles", lis.Addr())

	var prober *collect.Prober
	if *probeInterval > 0 {
		addrs := splitNonEmpty(*probeBDN)
		if len(addrs) == 0 {
			return errors.New("-probe-interval requires -probe-bdn")
		}
		// The collector scrapes the prober's plane in process like any other
		// node, so probe series land in the retention store — /query and the
		// SLO burn-rate rules read them from there.
		prober, err = col.NewProber(collect.ProbeConfig{
			Interval:      *probeInterval,
			BDNAddrs:      addrs,
			CollectWindow: *probeWindow,
			Logger:        logger,
		})
		if err != nil {
			return fmt.Errorf("prober: %w", err)
		}
		prober.Run()
		log.Printf("obscollect: probing %s every %s", strings.Join(addrs, ","), *probeInterval)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("obscollect: shutting down")
	// Shutdown order matters: the prober stops first (scraped one last
	// time), then the collector stops scraping and evaluating (flushing
	// still-firing alerts to the sinks), and only then does the HTTP plane
	// drain — so a final read of /alerts during shutdown still sees the
	// flushed state.
	if prober != nil {
		_ = prober.Close()
	}
	_ = col.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	<-done
	return nil
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
