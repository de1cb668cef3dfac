package main

import (
	"errors"
	"testing"
	"time"

	"narada/internal/core"
	"narada/internal/obs"
	"narada/internal/obs/collect"
)

// TestFailedDiscoveryStillShipsTelemetry runs the command body against a BDN
// address nothing listens on. The discovery fails — and exactly then the
// collector must still receive the requester's request-issue phase span and
// its node_stop event, which used to die with log.Fatalf before the deferred
// exporter flush could run.
func TestFailedDiscoveryStillShipsTelemetry(t *testing.T) {
	col, err := collect.New(collect.Config{Listen: "127.0.0.1:0", HealthInterval: -1})
	if err != nil {
		t.Fatalf("collector: %v", err)
	}
	defer col.Close() //nolint:errcheck

	err = run([]string{"-bind", "127.0.0.1", "-name", "req-1", "-bdn", "127.0.0.1:1", "-obs-export", col.Addr()})
	if !errors.Is(err, core.ErrNoPath) {
		t.Fatalf("run = %v, want %v", err, core.ErrNoPath)
	}

	// run has returned, so the plane's Close has flushed; what is left is
	// the loopback hop and the collector's ingest.
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
