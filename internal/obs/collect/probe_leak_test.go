package collect

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"narada/internal/obs/collect/health"
	"narada/internal/obs/profile"
)

// goroutineCount samples runtime.NumGoroutine after giving exiting goroutines
// a moment to unwind.
func goroutineCount() int {
	runtime.GC()
	time.Sleep(20 * time.Millisecond)
	return runtime.NumGoroutine()
}

// TestProberStartStopLeaksNoGoroutines cycles a prober against an unreachable
// fabric — probes fail, the collector keeps scraping its plane — and asserts
// repeated Run/Close cycles return the process to its baseline goroutine
// count. This pins the shutdown ordering: probe loop drained, the
// collector's scrape loop for the prober stopped, no ticker left behind.
func TestProberStartStopLeaksNoGoroutines(t *testing.T) {
	col := newTestCollector(t, Config{manual: true})

	cycle := func() {
		p, err := col.NewProber(ProbeConfig{
			Interval:   10 * time.Millisecond,
			BDNAddrs:   []string{"127.0.0.1:1"}, // nothing listening
			AckTimeout: 30 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("prober: %v", err)
		}
		p.Run()
		time.Sleep(25 * time.Millisecond) // let at least one probe fail
		if err := p.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := p.Close(); err != nil { // Close is idempotent
			t.Fatalf("second close: %v", err)
		}
	}

	cycle() // warm up lazy runtime state (netpoller, timer goroutines)
	before := goroutineCount()
	for i := 0; i < 5; i++ {
		cycle()
	}
	// Poll: goroutines unwind asynchronously after Close returns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		after := goroutineCount()
		if after <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines grew %d -> %d after 5 prober cycles\n%s",
				before, after, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCloseWaitsForFlightCapture fires an alert against a node whose CPU
// pprof endpoint never answers. The flight capture is then parked inside an
// HTTP request; Close must cancel that request rather than wait it out, and
// must return only once the capture can no longer touch the store.
func TestCloseWaitsForFlightCapture(t *testing.T) {
	entered := make(chan struct{})
	cancelled := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/goroutine", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("goroutine profile: total 0\n"))
	})
	mux.HandleFunc("/debug/pprof/profile", func(_ http.ResponseWriter, r *http.Request) {
		close(entered)
		<-r.Context().Done()
		close(cancelled)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := newTestCollector(t, Config{manual: true})
	scrapedAt(c, "b1", strings.TrimPrefix(srv.URL, "http://"))
	c.profiles.Publish(health.Alert{Rule: health.RuleDeadman, Node: "b1", State: health.StateFiring})
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("flight capture never reached the node's CPU endpoint")
	}
	before := c.profiles.store.Count() // the goroutine dump, stored before the CPU request

	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Uncancelled, the request would hold for the 2s flight CPU window + 5s.
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Close took %v: it waited out the capture instead of cancelling it", took)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("the node never saw its request cancelled")
	}
	if before != 1 || c.profiles.store.Count() != before {
		t.Fatalf("store count %d before Close, %d after, want 1 and unchanged", before, c.profiles.store.Count())
	}
	if got := c.Profiles(profile.Filter{Kind: profile.KindCPU}); len(got) != 0 {
		t.Fatalf("a cancelled CPU capture was stored: %+v", got)
	}
	// A firing alert after Close starts nothing.
	c.profiles.Publish(health.Alert{Rule: health.RuleDeadman, Node: "b1", State: health.StateFiring})
}
