package collect

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/http/pprof"
	rpprof "runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"narada/internal/obs"
	"narada/internal/obs/collect/health"
	"narada/internal/obs/plane"
	"narada/internal/obs/profile"
)

// pprofNode fakes one node's telemetry HTTP server: net/http/pprof's named
// profiles under /debug/pprof/ (no CPU profile), the handlers given in place
// of some of its paths, and a /telemetry document naming the node b1.
// Returns the host:port.
func pprofNode(t *testing.T, handlers map[string]http.HandlerFunc) string {
	t.Helper()
	routes := map[string]http.HandlerFunc{"/debug/pprof/": pprof.Index}
	maps.Copy(routes, handlers)
	mux := http.NewServeMux()
	for path, h := range routes {
		mux.HandleFunc(path, h)
	}
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(plane.Scrape{Node: "b1", Boot: 1})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// servePlane serves a node's own telemetry plane on loopback, asking to be
// profiled every period (0: never). Returns the host:port.
func servePlane(t *testing.T, node string, every time.Duration) string {
	t.Helper()
	p, err := plane.Start(plane.Config{Flags: plane.Flags{TelemetryAddr: "127.0.0.1:0", ProfileEvery: every},
		Node: node, Embedded: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Serve(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p.Addr()
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

// scrapedAt files node as scraped at addr, as a scrape of a node that asks
// for no profiles would.
func scrapedAt(c *Collector, node, addr string) {
	c.ingest(&plane.Scrape{Node: node}, addr)
}

// dueRound has a scrape of node ask for a round every period after one has
// passed since the last: the round starts.
func dueRound(c *Collector, node string, every time.Duration, contention ...profile.Kind) {
	c.profiles.mu.Lock()
	c.profiles.nodeLocked(node).last = time.Now().Add(-every)
	c.profiles.mu.Unlock()
	c.profiles.schedule(node, every, contention)
}

// TestPeriodicLoopCaptures: a node that asks to be profiled every period
// gets a round at that period, each capture stored with trigger periodic;
// below 4s a round takes no CPU profile. A node that asks for none is never
// captured.
func TestPeriodicLoopCaptures(t *testing.T) {
	const every = 300 * time.Millisecond
	c := newTestCollector(t, Config{ScrapeInterval: 20 * time.Millisecond, manual: true})
	asks, quiet := servePlane(t, "asks", every), servePlane(t, "quiet", 0)
	start := time.Now()
	c.Watch(asks)
	c.Watch(quiet)

	var rounds []profile.Capture // newest first
	for deadline := time.Now().Add(10 * time.Second); len(rounds) < 2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d periodic rounds in 10s, want 2", len(rounds))
		}
		rounds = c.Profiles(profile.Filter{Node: "asks", Kind: profile.KindGoroutine})
	}
	first, second := rounds[len(rounds)-1], rounds[len(rounds)-2]
	if first.At.Before(start.Add(every)) || second.At.Before(start.Add(2*every)) {
		t.Fatalf("rounds at %v and %v after the first scrape, want >= %v and >= %v",
			first.At.Sub(start), second.At.Sub(start), every, 2*every)
	}
	kinds := map[profile.Kind]int{}
	for _, cp := range c.Profiles(profile.Filter{Node: "asks"}) {
		if cp.Trigger != "periodic" {
			t.Fatalf("capture %s has trigger %q, want periodic", cp.ID, cp.Trigger)
		}
		kinds[cp.Kind]++
	}
	if kinds[profile.KindHeap] < 1 || kinds[profile.KindCPU] != 0 {
		t.Fatalf("kinds captured: %v, want goroutine and heap, no cpu under a 4s period", kinds)
	}
	for _, cp := range c.Profiles(profile.Filter{Node: "asks", Kind: profile.KindHeap}) {
		got, _ := c.profiles.store.Get(cp.ID)
		if s, err := profile.ParseText(got.Data); err != nil || s.Kind != "heap" {
			t.Fatalf("periodic heap capture does not parse as heap: %v", err)
		}
	}
	if got := c.Profiles(profile.Filter{Node: "quiet"}); len(got) != 0 {
		t.Fatalf("a node that asked for no profiles was captured: %+v", got)
	}
}

// TestPeriodicRoundKinds pins what one round asks a node's pprof for: the
// text kinds first, the contention kinds the node announced (and no other
// name it sent), then a 1s CPU profile — only when the period is 4s or more.
// A node's first scrape starts no round.
func TestPeriodicRoundKinds(t *testing.T) {
	var mu sync.Mutex
	var asked []string
	record := func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		asked = append(asked, r.URL.RequestURI())
		mu.Unlock()
		_, _ = w.Write([]byte("profile"))
	}
	addr := pprofNode(t, map[string]http.HandlerFunc{"/debug/pprof/": record, "/debug/pprof/profile": record})
	c := newTestCollector(t, Config{manual: true})
	scrapedAt(c, "b1", addr)
	roundOf := func(every time.Duration, contention ...profile.Kind) []string {
		t.Helper()
		mu.Lock()
		asked = nil
		mu.Unlock()
		dueRound(c, "b1", every, contention...)
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			c.profiles.mu.Lock()
			running := c.profiles.nodes["b1"].round
			c.profiles.mu.Unlock()
			if !running {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("round never finished")
			}
		}
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), asked...)
	}
	want := []string{"/debug/pprof/goroutine?debug=1", "/debug/pprof/heap?debug=1",
		"/debug/pprof/mutex?debug=1", "/debug/pprof/block?debug=1", "/debug/pprof/profile?seconds=1"}
	got := roundOf(4*time.Second, profile.KindMutex, profile.KindBlock, profile.KindCPU, "../telemetry")
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("4s round asked %q, want %q", got, want)
	}
	if got := roundOf(3999 * time.Millisecond); strings.Join(got, " ") != strings.Join(want[:2], " ") {
		t.Fatalf("3.999s round asked %q, want %q", got, want[:2])
	}

	c.profiles.schedule("b2", time.Second, nil)
	c.profiles.mu.Lock()
	firstStarted := c.profiles.nodes["b2"].round
	c.profiles.mu.Unlock()
	if firstStarted {
		t.Fatal("a node's first scrape asking for profiles started a round")
	}
}

// TestFlightWaitsForPeriodicCPU: a flight capture that arrives while the
// node's periodic CPU profile is being taken waits for it, and still stores
// a CPU profile of its own — two CPU profiles of one process never overlap,
// where pprof would refuse the second.
func TestFlightWaitsForPeriodicCPU(t *testing.T) {
	entered := make(chan struct{}, 2) // one send per CPU request: the round's and the flight's
	addr := pprofNode(t, map[string]http.HandlerFunc{"/debug/pprof/profile": func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		pprof.Profile(w, r)
	}})
	// At a 100ms scrape interval a flight CPU profile takes its 1s floor.
	c := newTestCollector(t, Config{ScrapeInterval: 100 * time.Millisecond, manual: true})
	scrapedAt(c, "b1", addr)
	dueRound(c, "b1", 4*time.Second)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the periodic round never asked for a CPU profile")
	}
	c.profiles.Publish(health.Alert{Rule: health.RuleGoroutineLeak, Node: "b1", State: health.StateFiring})
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		flight := c.Profiles(profile.Filter{Node: "b1", Kind: profile.KindCPU, Trigger: "flight:"})
		periodic := c.Profiles(profile.Filter{Node: "b1", Kind: profile.KindCPU, Trigger: "periodic"})
		if len(flight) == 1 && len(periodic) == 1 {
			if !flight[0].At.After(periodic[0].At) {
				t.Fatalf("flight CPU profile at %v, not after the periodic one at %v", flight[0].At, periodic[0].At)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("CPU profiles: %d flight, %d periodic, want 1 each (pull errors: %d)",
				len(flight), len(periodic), c.profilePullErrs.Value())
		}
	}
	if n := c.profilePullErrs.Value(); n != 0 {
		t.Fatalf("%d profile requests failed, want none", n)
	}
}

// TestOversizedCaptureDropped: a profile over maxCaptureBytes is dropped
// whole and counted, never stored cut; one of exactly maxCaptureBytes is
// kept.
func TestOversizedCaptureDropped(t *testing.T) {
	body := func(n int) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write(bytes.Repeat([]byte("g"), n)) }
	}
	addr := pprofNode(t, map[string]http.HandlerFunc{
		"/debug/pprof/goroutine": body(maxCaptureBytes + 1),
		"/debug/pprof/heap":      body(maxCaptureBytes),
	})
	c := newTestCollector(t, Config{manual: true})
	scrapedAt(c, "b1", addr)
	refs := c.profiles.capture("b1", "periodic", 0, profile.KindGoroutine, profile.KindHeap)
	if len(refs) != 1 || refs[0].Kind != profile.KindHeap || refs[0].Size != maxCaptureBytes {
		t.Fatalf("stored %+v, want the %d-byte heap profile alone", refs, maxCaptureBytes)
	}
	if got := c.Profiles(profile.Filter{Kind: profile.KindGoroutine}); len(got) != 0 {
		t.Fatalf("oversized goroutine profile stored: %+v", got)
	}
	if n := c.profilePullErrs.Value(); n != 1 {
		t.Fatalf("pull errors = %d, want 1", n)
	}
}

// TestProfilePullAndServe takes profiles of a node from its pprof endpoints
// and serves them: the listing, a download, the ?view=top summary, a diff
// and a miss.
func TestProfilePullAndServe(t *testing.T) {
	addr := pprofNode(t, nil)
	c := newTestCollector(t, Config{manual: true})
	scrapeNow(t, c, addr)
	for i := 0; i < 2; i++ {
		if refs := c.profiles.capture("b1", "periodic", 0, profile.KindGoroutine, profile.KindHeap); len(refs) != 2 {
			t.Fatalf("round %d stored %+v, want goroutine and heap", i, refs)
		}
	}
	// A scrape of a node that asks for no profiles takes none.
	scrapeNow(t, c, addr)
	if got := len(c.Profiles(profile.Filter{})); got != 4 {
		t.Fatalf("%d profiles, want 4", got)
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
	if len(listed) != 2 || listed[0].Trigger != "periodic" {
		t.Fatalf("/profiles listed %+v, want 2 periodic", listed)
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
	addr := pprofNode(t, nil)
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
				if p.Node != "b1" || p.Trigger != "flight:"+health.RuleGoroutineLeak || p.Kind != profile.KindGoroutine {
					t.Fatalf("linked profile = %+v", p)
				}
				// The link is a goroutine dump, downloadable by the URL the
				// alert carries.
				resp, err := srv.Client().Get(srv.URL + p.URL)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 || !strings.HasPrefix(string(body), "goroutine profile:") {
					t.Fatalf("GET %s: status %d body %.60q", p.URL, resp.StatusCode, body)
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

// TestProfileViewsAgree serves a node's goroutine and CPU profiles from the
// collector after a capture: a download is byte-identical to what the node's
// pprof answered, typed by kind, and ?view=top renders the same summary the
// node's bytes parse to; a binary CPU profile has none.
func TestProfileViewsAgree(t *testing.T) {
	var dump bytes.Buffer
	if err := rpprof.Lookup("goroutine").WriteTo(&dump, 1); err != nil {
		t.Fatal(err)
	}
	cpu := []byte("\x1f\x8b not text")
	served := map[profile.Kind][]byte{profile.KindGoroutine: dump.Bytes(), profile.KindCPU: cpu}
	addr := pprofNode(t, map[string]http.HandlerFunc{
		"/debug/pprof/goroutine": func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write(dump.Bytes()) },
		"/debug/pprof/profile":   func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write(cpu) },
	})
	c := newTestCollector(t, Config{manual: true})
	scrapedAt(c, "b1", addr)
	if refs := c.profiles.capture("b1", "periodic", 1, profile.KindGoroutine); len(refs) != 2 {
		t.Fatalf("captured %+v, want goroutine and cpu", refs)
	}
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
	for kind, data := range served {
		pulled := c.Profiles(profile.Filter{Node: "b1", Kind: kind})
		if len(pulled) != 1 {
			t.Fatalf("collector holds %d %s captures of b1, want 1", len(pulled), kind)
		}
		colURL := colSrv.URL + pulled[0].URL

		rawType := text
		if kind == profile.KindCPU {
			rawType = "application/octet-stream"
		}
		status, hdr, body := get(colURL)
		if status != 200 || !bytes.Equal(body, data) {
			t.Errorf("%s raw: status %d, %d bytes, want the node's %d", kind, status, len(body), len(data))
		}
		if ct := hdr.Get("Content-Type"); ct != rawType {
			t.Errorf("%s raw: Content-Type %q, want %q", kind, ct, rawType)
		}
		if cd, want := hdr.Get("Content-Disposition"), `attachment; filename="`+pulled[0].ID+`.pprof"`; cd != want {
			t.Errorf("%s raw: Content-Disposition %q, want %q", kind, cd, want)
		}

		status, hdr, body = get(colURL + "?view=top")
		if kind == profile.KindCPU { // a binary profile has no text summary
			if status != http.StatusUnprocessableEntity {
				t.Errorf("cpu top: status %d, want 422", status)
			}
			continue
		}
		s, err := profile.ParseText(data)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		profile.WriteTop(&want, s, 30)
		if status != 200 || !bytes.Equal(body, want.Bytes()) {
			t.Errorf("%s top: status %d, %d bytes, want the node's summary (%d bytes)", kind, status, len(body), want.Len())
		}
		if ct, cd := hdr.Get("Content-Type"), hdr.Get("Content-Disposition"); ct != text || cd != "" {
			t.Errorf("%s top: Content-Type %q, Content-Disposition %q on a rendered view", kind, ct, cd)
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
