package collect

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	rpprof "runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"narada/internal/obs"
	"narada/internal/obs/collect/health"
	"narada/internal/obs/plane"
	"narada/internal/obs/profile"
)

// nodeTelemetry fakes one node's telemetry HTTP server: the capturer mounted
// at /profiles, the goroutine pprof endpoint the flight recorder pulls, and a
// /telemetry document listing the captures newer than the since= it is sent
// (a cursor of its own, the newest listed capture's Unix ns — the collector
// only echoes it). Returns the host:port.
func nodeTelemetry(t *testing.T, capt *profile.Capturer) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/profiles", capt.Handler())
	mux.Handle("/profiles/", capt.Handler())
	mux.HandleFunc("/debug/pprof/goroutine", func(w http.ResponseWriter, _ *http.Request) {
		_ = rpprof.Lookup("goroutine").WriteTo(w, 1)
	})
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, r *http.Request) {
		since := r.URL.Query().Get("since")
		var f profile.Filter
		if ns, err := strconv.ParseInt(since, 10, 64); err == nil {
			f.Since = time.Unix(0, ns)
		}
		doc := plane.Scrape{Node: "b1", Boot: 1, Next: since, Profiles: capt.List(f)}
		if len(doc.Profiles) > 0 {
			doc.Next = strconv.FormatInt(doc.Profiles[0].At.UnixNano(), 10)
		}
		_ = json.NewEncoder(w).Encode(doc)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// scrapeNow watches addr and scrapes it once, synchronously.
func scrapeNow(t *testing.T, c *Collector, addr string) {
	t.Helper()
	c.Watch(addr)
	c.mu.Lock()
	tg := c.targets[addr]
	c.mu.Unlock()
	if err := c.scrape(tg); err != nil {
		t.Fatalf("scrape %s: %v", addr, err)
	}
}

// scrapedAt files node as scraped at addr, as a scrape of a node that lists
// nothing would.
func scrapedAt(c *Collector, node, addr string) {
	c.ingest(&plane.Scrape{Node: node}, addr)
}

func TestProfilePullAndServe(t *testing.T) {
	capt := profile.New(profile.Config{})
	addr := nodeTelemetry(t, capt)
	if _, err := capt.CaptureNow("periodic", profile.KindGoroutine, profile.KindHeap); err != nil {
		t.Fatal(err)
	}
	c := newTestCollector(t, Config{manual: true})
	scrapeNow(t, c, addr)

	refs := c.Profiles(profile.Filter{Node: "b1"})
	if len(refs) != 2 {
		t.Fatalf("pulled %d profiles, want 2: %+v", len(refs), refs)
	}
	// A second scrape must not re-download already-pulled captures.
	scrapeNow(t, c, addr)
	if got := len(c.Profiles(profile.Filter{})); got != 2 {
		t.Fatalf("after second scrape: %d profiles, want 2 (pull not idempotent)", got)
	}
	// A fresh node-side capture is picked up incrementally.
	if _, err := capt.CaptureNow("periodic", profile.KindGoroutine); err != nil {
		t.Fatal(err)
	}
	scrapeNow(t, c, addr)
	gor := c.Profiles(profile.Filter{Node: "b1", Kind: "goroutine"})
	if len(gor) != 2 {
		t.Fatalf("goroutine profiles after incremental pull = %d, want 2", len(gor))
	}

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	var listed []profile.Capture
	resp, err := srv.Client().Get(srv.URL + "/profiles?node=b1&kind=goroutine")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	resp.Body.Close()
	if len(listed) != 2 {
		t.Fatalf("/profiles listed %d, want 2", len(listed))
	}

	resp, err = srv.Client().Get(srv.URL + listed[0].URL)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 64)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(string(body[:n]), "goroutine profile:") {
		t.Fatalf("download: status %d body %q", resp.StatusCode, body[:n])
	}

	resp, err = srv.Client().Get(srv.URL + listed[0].URL + "?view=top")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("top view: status %d", resp.StatusCode)
	}

	// Diff newest (listed[0]) against oldest (listed[1]).
	resp, err = srv.Client().Get(srv.URL + "/profiles/diff?a=" + listed[1].ID + "&b=" + listed[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("diff: status %d", resp.StatusCode)
	}

	resp, err = srv.Client().Get(srv.URL + "/profiles/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("missing profile: status %d, want 404", resp.StatusCode)
	}
}

// TestFlightRecorderOnGoroutineLeak drives the whole chain: runtime gauges in
// the series store breach the leak rule, the engine fires, the flight
// recorder pulls a goroutine profile from the node and /alerts links it.
func TestFlightRecorderOnGoroutineLeak(t *testing.T) {
	addr := nodeTelemetry(t, profile.New(profile.Config{}))
	c := newTestCollector(t, Config{manual: true})
	scrapedAt(c, "b1", addr)

	fams := func(g float64) []obs.ExportFamily {
		return []obs.ExportFamily{{
			Name: "narada_process_goroutines", Kind: "gauge",
			Series: []obs.ExportSeries{{Gauge: g}},
		}}
	}
	now := time.Now()
	c.store.Observe(now.Add(-3*time.Minute), "b1", 1, fams(100))
	c.store.Observe(now, "b1", 2, fams(900))

	c.evaluate()
	if c.health.Firing() < 1 {
		t.Fatalf("goroutine_leak did not fire; alerts: %+v", c.health.Alerts())
	}

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var av AlertsView
		resp, err := srv.Client().Get(srv.URL + "/alerts")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&av); err != nil {
			t.Fatalf("alerts decode: %v", err)
		}
		resp.Body.Close()
		for _, a := range av.Alerts {
			if a.Rule == health.RuleGoroutineLeak && len(a.Profiles) > 0 {
				p := a.Profiles[0]
				if p.Node != "b1" || p.Trigger != "flight:"+health.RuleGoroutineLeak {
					t.Fatalf("linked profile = %+v", p)
				}
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no profile linked to the goroutine_leak alert; alerts: %+v", av.Alerts)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestFlightRecorderDeadNodeFallback: when the alerted node is unreachable
// (deadman — the process is gone), the alert links the node's freshest
// retained captures instead of fresh ones.
func TestFlightRecorderDeadNodeFallback(t *testing.T) {
	c := newTestCollector(t, Config{manual: true})
	ref, err := c.profiles.store.Add(profile.Capture{Node: "b2", Kind: profile.KindGoroutine, Trigger: "periodic", At: time.Now(),
		Data: []byte("goroutine profile: total 1\n1 @ 0x1\n#\t0x1\tmain.f+0x1\tf.go:1\n")})
	if err != nil {
		t.Fatal(err)
	}
	c.profiles.Publish(health.Alert{Rule: health.RuleDeadman, Node: "b2", State: health.StateFiring})
	deadline := time.Now().Add(5 * time.Second)
	for {
		links := c.profiles.linksFor(health.RuleDeadman, "b2")
		if len(links) > 0 {
			if links[0].ID != ref.ID {
				t.Fatalf("linked %+v, want the retained capture %s", links[0], ref.ID)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("dead-node alert never linked retained captures")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestProfileViewsAgree serves the same captures from a node's
// /profiles/{id} and, after a scrape, from the collector's: the bodies are
// byte-identical and the headers the same shape, raw and under ?view=top —
// both handlers end in profile.Capture.WriteHTTP.
func TestProfileViewsAgree(t *testing.T) {
	// An Interval with no Start: it only clamps the CPU sampling window
	// (a quarter of it) so the CPU capture below takes 10ms, not 1s.
	capt := profile.New(profile.Config{Interval: 40 * time.Millisecond})
	addr := nodeTelemetry(t, capt)
	caps, err := capt.CaptureNow("manual", profile.KindGoroutine, profile.KindCPU)
	if err != nil || len(caps) != 2 {
		t.Fatalf("CaptureNow: %v, %d captures", err, len(caps))
	}
	c := newTestCollector(t, Config{manual: true})
	scrapeNow(t, c, addr)
	colSrv := httptest.NewServer(c.Handler())
	defer colSrv.Close()

	get := func(url string) (int, http.Header, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, body
	}
	const text = "text/plain; charset=utf-8"
	for _, nodeCap := range caps {
		pulled := c.Profiles(profile.Filter{Node: "b1", Kind: nodeCap.Kind})
		if len(pulled) != 1 {
			t.Fatalf("collector holds %d %s captures of b1, want 1", len(pulled), nodeCap.Kind)
		}
		nodeURL, colURL := "http://"+addr+"/profiles/"+nodeCap.ID, colSrv.URL+pulled[0].URL

		rawType := text
		if nodeCap.Kind == profile.KindCPU {
			rawType = "application/octet-stream"
		}
		nStatus, nHdr, nBody := get(nodeURL)
		cStatus, cHdr, cBody := get(colURL)
		if nStatus != 200 || cStatus != 200 || !bytes.Equal(nBody, nodeCap.Data) || !bytes.Equal(cBody, nodeCap.Data) {
			t.Errorf("%s raw: status %d/%d, bodies %d/%d bytes, want the capture's %d on both",
				nodeCap.Kind, nStatus, cStatus, len(nBody), len(cBody), len(nodeCap.Data))
		}
		if nt, ct := nHdr.Get("Content-Type"), cHdr.Get("Content-Type"); nt != rawType || ct != rawType {
			t.Errorf("%s raw: Content-Type %q/%q, want %q", nodeCap.Kind, nt, ct, rawType)
		}
		if nd, want := nHdr.Get("Content-Disposition"), `attachment; filename="`+nodeCap.ID+`.pprof"`; nd != want {
			t.Errorf("%s raw: node Content-Disposition %q, want %q", nodeCap.Kind, nd, want)
		}
		if cd, want := cHdr.Get("Content-Disposition"), `attachment; filename="`+pulled[0].ID+`.pprof"`; cd != want {
			t.Errorf("%s raw: collector Content-Disposition %q, want %q", nodeCap.Kind, cd, want)
		}

		nStatus, nHdr, nBody = get(nodeURL + "?view=top")
		cStatus, cHdr, cBody = get(colURL + "?view=top")
		if nodeCap.Kind == profile.KindCPU { // a binary profile has no text summary, on either side
			if nStatus != http.StatusUnprocessableEntity || cStatus != http.StatusUnprocessableEntity {
				t.Errorf("cpu top: status %d/%d, want 422 on both", nStatus, cStatus)
			}
			continue
		}
		if nStatus != 200 || cStatus != 200 || len(nBody) == 0 || !bytes.Equal(nBody, cBody) {
			t.Errorf("%s top: status %d/%d, bodies %d/%d bytes, want equal", nodeCap.Kind, nStatus, cStatus, len(nBody), len(cBody))
		}
		if nt, ct := nHdr.Get("Content-Type"), cHdr.Get("Content-Type"); nt != text || ct != text {
			t.Errorf("%s top: Content-Type %q/%q, want %q", nodeCap.Kind, nt, ct, text)
		}
		if nd, cd := nHdr.Get("Content-Disposition"), cHdr.Get("Content-Disposition"); nd != "" || cd != "" {
			t.Errorf("%s top: Content-Disposition %q/%q on a rendered view", nodeCap.Kind, nd, cd)
		}
	}
}

func TestGaugeWindowStats(t *testing.T) {
	st := newSeriesStore(resolutionsAt(time.Second), 0)
	fams := func(g float64) []obs.ExportFamily {
		return []obs.ExportFamily{{
			Name: "narada_process_goroutines", Kind: "gauge",
			Series: []obs.ExportSeries{{Gauge: g}},
		}}
	}
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	st.Observe(now.Add(-40*time.Second), "b1", 1, fams(300))
	st.Observe(now.Add(-20*time.Second), "b1", 2, fams(100))
	st.Observe(now, "b1", 3, fams(700))

	minV, lastV, avgV, ok := st.GaugeWindowStats("narada_process_goroutines", "b1", time.Minute, now)
	if !ok {
		t.Fatal("no stats for a populated gauge")
	}
	if minV != 100 || lastV != 700 {
		t.Fatalf("min=%v last=%v, want 100/700", minV, lastV)
	}
	if avgV < 300 || avgV > 400 { // (300+100+700)/3
		t.Fatalf("avg=%v, want ~366", avgV)
	}
	if _, _, _, ok := st.GaugeWindowStats("narada_process_goroutines", "nope", time.Minute, now); ok {
		t.Fatal("stats for an unknown node")
	}
}
