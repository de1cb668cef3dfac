package main

import (
	"errors"
	"net"
	"testing"
	"time"

	"narada/internal/core"
	"narada/internal/obs"
	"narada/internal/obs/collect"
)

// TestFailedDiscoveryStillShipsTelemetry runs the command body with
// -telemetry-addr and -linger against a BDN address nothing listens on,
// under a collector watching that address. The discovery fails — and exactly
// then the collector must still receive the requester's request-issue phase
// span and its node_stop event: the linger keeps the requester up to be
// scraped, and the plane's Close waits for the scrape that carries
// node_stop.
func TestFailedDiscoveryStillShipsTelemetry(t *testing.T) {
	col, err := collect.New(collect.Config{ScrapeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("collector: %v", err)
	}
	defer col.Close() //nolint:errcheck
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	col.Watch(addr)

	err = run([]string{"-bind", "127.0.0.1", "-name", "req-1", "-bdn", "127.0.0.1:1",
		"-telemetry-addr", addr, "-linger", "300ms"})
	if !errors.Is(err, core.ErrNoPath) {
		t.Fatalf("run = %v, want %v", err, core.ErrNoPath)
	}

	// run has returned, so the last scrape has been served; what is left is
	// the collector's ingest.
	deadline := time.Now().Add(5 * time.Second)
	for {
		stops := col.Events(collect.EventFilter{Node: "req-1", Type: obs.EventNodeStop}).Events
		issued := false
		for _, sum := range col.Traces() {
			tr, _ := col.Trace(sum.ID)
			for _, s := range tr.Spans {
				if s.Node == "req-1" && s.Name == core.PhaseRequestIssue.String() {
					issued = true
				}
			}
		}
		if len(stops) == 1 && issued {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("collector has %d node_stop events (want 1) and request-issue span = %v (want true)",
				len(stops), issued)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
