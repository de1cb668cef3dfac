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
//	/profiles      periodic + flight-recorded pprof captures, downloadable by
//	               id; /profiles/diff renders a text-mode site diff
//
// Every node is scraped each -scrape-interval; each scrape also feeds the
// in-memory time-series store and the health engine, which evaluates
// deadman / clock-drift / egress / SLO burn-rate rules once per scrape
// interval and publishes alert transitions to the log and, with
// -alert-webhook, to a JSON webhook. -scrape-interval is the collector's only
// clock: every rule window and hold is a fixed count of scrape intervals.
//
// With -probe-interval it also runs the synthetic prober: periodic
// end-to-end discoveries against the live fabric whose traces and
// success-rate/latency SLIs land in this collector.
//
// Usage:
//
//	obscollect -nodes 127.0.0.1:9401,127.0.0.1:9402 -http 127.0.0.1:9311
//	obscollect -nodes 127.0.0.1:9401 -http :9311 -probe-interval 10s -probe-bdn 127.0.0.1:7000
//	obscollect -nodes 127.0.0.1:9401 -http :9311 -alert-webhook http://ops/hook
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
		nodes          = flag.String("nodes", "", "comma-separated telemetry addrs (host:port) of the nodes to scrape")
		httpAddr       = flag.String("http", "127.0.0.1:9311", "HTTP listen addr for /metrics, /traces, /fabric, /alerts, /events, /topology, /query")
		scrapeInterval = flag.Duration("scrape-interval", time.Second, "how often every node is scraped and the health rules evaluated; every rule window is a fixed count of it")
		probeInterval  = flag.Duration("probe-interval", 0, "synthetic discovery probe interval (0 = no prober)")
		probeBDN       = flag.String("probe-bdn", "", "comma-separated BDN stream addrs the prober discovers through")
		webhook        = flag.String("alert-webhook", "", "URL POSTed one JSON document per alert transition (optional)")
		profileDir     = flag.String("profile-dir", "", "spool periodic and flight-recorded profiles to this directory ('' = in-memory only)")
		tf             = plane.RegisterFlags(flag.CommandLine, plane.FlagProfileRates|plane.FlagLogLevel, false)
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

	sinks := []health.Sink{health.NewLogSink(logger)}
	if *webhook != "" {
		sinks = append(sinks, health.NewWebhookSink(*webhook, 0, logger))
	}

	col, err := collect.New(collect.Config{
		Logger:         logger,
		Registry:       p.Handle().Metrics,
		ScrapeInterval: *scrapeInterval,
		Sinks:          sinks,
		ProfileDir:     *profileDir,
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
			Interval: *probeInterval,
			BDNAddrs: addrs,
			Logger:   logger,
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
