package plane_test

import (
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"narada/internal/obs"
	"narada/internal/obs/plane"
)

// sink is a loopback UDP endpoint standing in for obscollect: it decodes
// every export datagram it receives and keeps it for the test to inspect.
type sink struct {
	pc *net.UDPConn

	mu      sync.Mutex
	packets []*obs.ExportPacket
	arrived chan struct{} // 1-slot wake-up, sent to on every packet
}

func newSink(t *testing.T) *sink {
	t.Helper()
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &sink{pc: pc, arrived: make(chan struct{}, 1)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 65536)
		for {
			n, _, err := pc.ReadFromUDP(buf)
			if err != nil {
				return // closed
			}
			pkt, err := obs.DecodeExportPacket(buf[:n])
			if err != nil {
				t.Errorf("undecodable export packet: %v", err)
				continue
			}
			s.mu.Lock()
			s.packets = append(s.packets, pkt)
			s.mu.Unlock()
			select {
			case s.arrived <- struct{}{}:
			default:
			}
		}
	}()
	t.Cleanup(func() {
		_ = pc.Close()
		<-done
	})
	return s
}

// await blocks until some received packet satisfies match and returns it.
func (s *sink) await(t *testing.T, what string, match func(*obs.ExportPacket) bool) *obs.ExportPacket {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		s.mu.Lock()
		for _, p := range s.packets {
			if match(p) {
				s.mu.Unlock()
				return p
			}
		}
		s.mu.Unlock()
		select {
		case <-s.arrived:
		case <-deadline:
			t.Fatalf("collector never received %s", what)
		}
	}
}

// TestPlaneLifecycle drives one plane over real loopback sockets with both
// the exporter and the telemetry endpoint on: the collector must see the
// endpoint announced, a span recorded before Close, and — only once Close
// has run — the final metrics snapshot and journal drain.
func TestPlaneLifecycle(t *testing.T) {
	col := newSink(t)
	p, err := plane.Start(plane.Config{
		Flags:          plane.Flags{ExportAddr: col.pc.LocalAddr().String(), TelemetryAddr: "127.0.0.1:0"},
		Node:           "node-1",
		ExportInterval: time.Hour, // nothing but Close ships a snapshot
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer p.Close()

	h := p.Handle().Scoped("test", "node-1")
	runs := h.Metrics.Counter("narada_plane_test_runs_total", "Test counter.")
	p.SetFlows(func() []obs.FlowSnapshot { return []obs.FlowSnapshot{{Topic: "t/1", PubMsgs: 3}} })
	if err := p.Serve(); err != nil {
		t.Fatalf("serve: %v", err)
	}
	if p.Addr() == "" {
		t.Fatal("Addr is empty after Serve")
	}

	info := col.await(t, "the node-info announce", func(pkt *obs.ExportPacket) bool { return pkt.NodeInfo })
	if info.Node != "node-1" || info.TelemetryAddr != p.Addr() || !info.ProfilesOn {
		t.Errorf("announce = node %q addr %q profiles %v, want node-1 %s true",
			info.Node, info.TelemetryAddr, info.ProfilesOn, p.Addr())
	}

	resp, err := http.Get("http://" + p.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	for _, fam := range []string{"narada_plane_test_runs_total", "narada_process_uptime_seconds", "narada_obs_export_packets_total"} {
		if !strings.Contains(string(body), "# TYPE "+fam+" ") {
			t.Errorf("/metrics lacks family %s", fam)
		}
	}

	h.Tracer.Trace("req-1").Event("before-close", time.Now())
	h.Journal.Emit(obs.EventNodeStop, "node-1", "")
	runs.Add(7)

	col.mu.Lock()
	for _, pkt := range col.packets {
		if pkt.Families != nil || pkt.Events != nil || pkt.Flows != nil {
			t.Errorf("a snapshot shipped before Close: %+v", pkt)
		}
	}
	col.mu.Unlock()

	p.Close()
	p.Close() // idempotent

	col.await(t, "the span recorded before Close", func(pkt *obs.ExportPacket) bool {
		for _, r := range pkt.Spans {
			if r.TraceID == "req-1" && r.Span.Name == "before-close" {
				return true
			}
		}
		return false
	})
	col.await(t, "the final metrics snapshot", func(pkt *obs.ExportPacket) bool {
		for _, f := range pkt.Families {
			if f.Name == "narada_plane_test_runs_total" {
				return len(f.Series) == 1 && f.Series[0].Counter == 7
			}
		}
		return false
	})
	col.await(t, "the final journal drain", func(pkt *obs.ExportPacket) bool {
		return len(pkt.Events) == 1 && pkt.Events[0].Type == obs.EventNodeStop
	})
	col.await(t, "the late-bound flow snapshot", func(pkt *obs.ExportPacket) bool {
		return len(pkt.Flows) == 1 && pkt.Flows[0].Topic == "t/1"
	})
	if _, err := http.Get("http://" + p.Addr() + "/healthz"); err == nil {
		t.Error("telemetry endpoint still answers after Close")
	}
}

// TestPlaneVariants pins what the non-default planes leave out: an embedded
// plane carries no process metrics, a borrowed registry is used but never
// shipped, and a metrics-only plane has no tracer, journal or /profiles.
func TestPlaneVariants(t *testing.T) {
	col := newSink(t)

	lent := obs.NewRegistry()
	p, err := plane.Start(plane.Config{
		Flags: plane.Flags{ExportAddr: col.pc.LocalAddr().String()},
		Node:  "probe", ExportInterval: time.Hour, Registry: lent, Embedded: true,
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	if p.Handle().Metrics != lent {
		t.Error("a lent registry is not the one handed out")
	}
	p.Handle().Journal.Emit(obs.EventNodeStop, "probe", "")
	p.Close()
	col.await(t, "the borrowed-registry plane's journal drain", func(pkt *obs.ExportPacket) bool {
		return pkt.Node == "probe" && len(pkt.Events) == 1
	})
	col.mu.Lock()
	for _, pkt := range col.packets {
		if pkt.Families != nil {
			t.Errorf("a borrowed registry was shipped: %+v", pkt.Families)
		}
	}
	col.mu.Unlock()
	if len(lent.ExportSnapshot()) != 0 {
		t.Errorf("the plane registered families on a lent registry: %+v", lent.ExportSnapshot())
	}

	p, err = plane.Start(plane.Config{Embedded: true})
	if err != nil {
		t.Fatalf("start embedded: %v", err)
	}
	for _, f := range p.Handle().Metrics.ExportSnapshot() {
		if strings.HasPrefix(f.Name, "narada_process_") || f.Name == "narada_build_info" {
			t.Errorf("embedded plane carries process family %s", f.Name)
		}
	}
	p.Close()

	p, err = plane.Start(plane.Config{Flags: plane.Flags{TelemetryAddr: "127.0.0.1:0"}, MetricsOnly: true})
	if err != nil {
		t.Fatalf("start metrics-only: %v", err)
	}
	defer p.Close()
	if h := p.Handle(); h.Tracer != nil || h.Journal != nil {
		t.Error("metrics-only plane has a tracer or journal")
	}
	if _, err := plane.Start(plane.Config{Flags: plane.Flags{LogLevel: "loud"}}); err == nil {
		t.Error("an unknown log level was accepted")
	}
	if err := p.Serve(); err != nil {
		t.Fatalf("serve: %v", err)
	}
	for path, want := range map[string]int{
		"/metrics": http.StatusOK, "/healthz": http.StatusOK,
		"/debug/traces": http.StatusNotFound, "/profiles": http.StatusNotFound,
	} {
		resp, err := http.Get("http://" + p.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestPlaneLeaksNoGoroutines cycles full planes — exporter, capturer, HTTP
// endpoint — and asserts the process returns to its baseline goroutine count:
// Close waits for everything Start and Serve launched.
func TestPlaneLeaksNoGoroutines(t *testing.T) {
	col := newSink(t)
	cycle := func() {
		p, err := plane.Start(plane.Config{
			Flags: plane.Flags{
				ExportAddr:    col.pc.LocalAddr().String(),
				TelemetryAddr: "127.0.0.1:0",
				ProfileEvery:  time.Hour,
			},
			Node: "leak",
		})
		if err != nil {
			t.Fatalf("start: %v", err)
		}
		if err := p.Serve(); err != nil {
			t.Fatalf("serve: %v", err)
		}
		p.Handle().Tracer.Trace("r").Event("e", time.Now())
		p.Close()
	}
	count := func() int {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
		return runtime.NumGoroutine()
	}
	http.DefaultClient.CloseIdleConnections()
	cycle() // warm up lazy runtime state (netpoller, timer goroutines)
	before := count()
	for i := 0; i < 5; i++ {
		cycle()
	}
	deadline := time.Now().Add(5 * time.Second)
	for after := count(); after > before; after = count() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines grew %d -> %d after 5 plane cycles\n%s",
				before, after, buf[:runtime.Stack(buf, true)])
		}
	}
}
