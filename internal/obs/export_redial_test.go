package obs

import (
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// movablePort is a stand-in for a re-resolvable collector address: the Dial
// hook resolves "the collector" to whatever port currently holds.
type movablePort struct {
	addr atomic.Value // string
}

func (m *movablePort) set(addr string) { m.addr.Store(addr) }

func (m *movablePort) dial(string) (net.Conn, error) {
	return net.Dial("udp", m.addr.Load().(string))
}

func udpListener(t *testing.T) *net.UDPConn {
	t.Helper()
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return pc
}

// TestExporterRedialsMovedCollector kills the collector socket mid-run and
// rebinds it on a fresh port: after redialAfter consecutive send failures the
// exporter re-resolves the address and traffic flows to the new port without
// restarting the exporter.
func TestExporterRedialsMovedCollector(t *testing.T) {
	first := udpListener(t)
	mp := &movablePort{}
	mp.set(first.LocalAddr().String())

	e, err := NewExporter(ExporterConfig{
		Addr:            "collector", // logical name; mp.dial resolves it
		Node:            "b1",
		MetricsInterval: -1,
		redialAfter:     3,
		Dial:            mp.dial,
	})
	if err != nil {
		t.Fatalf("exporter: %v", err)
	}
	defer e.Close()

	probe := EncodeSpanPacket("b1", 0, []SpanRecord{{TraceID: "t", Span: SpanView{Name: "s"}}})
	e.send(probe)
	buf := make([]byte, 64*1024)
	first.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := first.ReadFromUDP(buf); err != nil {
		t.Fatalf("first collector never heard the exporter: %v", err)
	}

	// The collector "restarts" on a different port. Writes to the dead port
	// fail (ICMP port-unreachable surfaces as ECONNREFUSED on the connected
	// socket), and after redialAfter of them the exporter must follow.
	second := udpListener(t)
	defer second.Close()
	first.Close()
	mp.set(second.LocalAddr().String())

	deadline := time.Now().Add(5 * time.Second)
	for e.Redials() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("exporter never redialled the moved collector")
		}
		e.send(probe)
		time.Sleep(5 * time.Millisecond)
	}

	e.send(probe)
	second.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := second.ReadFromUDP(buf)
	if err != nil {
		t.Fatalf("moved collector never heard the exporter: %v", err)
	}
	pkt, err := DecodeExportPacket(buf[:n])
	if err != nil || pkt.Node != "b1" {
		t.Fatalf("post-redial packet decode = %+v, %v", pkt, err)
	}
}

// TestExporterRedialBackoff checks a failing Dial does not spin: the failure
// counter resets so another full redialAfter window passes before the next
// attempt, and the exporter keeps counting send errors in the meantime.
func TestExporterRedialBackoff(t *testing.T) {
	dead := udpListener(t)
	addr := dead.LocalAddr().String()
	dead.Close()

	dials := 0
	e, err := NewExporter(ExporterConfig{
		Addr:            addr,
		Node:            "b1",
		MetricsInterval: -1,
		redialAfter:     2,
		Dial: func(a string) (net.Conn, error) {
			dials++
			if dials > 1 { // first dial (construction) succeeds
				return nil, net.ErrClosed
			}
			return net.Dial("udp", a)
		},
	})
	if err != nil {
		t.Fatalf("exporter: %v", err)
	}
	defer e.Close()

	pkt := EncodeSpanPacket("b1", 0, nil)
	for i := 0; i < 10; i++ {
		e.send(pkt)
		time.Sleep(2 * time.Millisecond)
	}
	if e.Redials() != 0 {
		t.Fatalf("redials = %d with a failing dial, want 0", e.Redials())
	}
	// 10 sends with redialAfter=2: at most 5 dial attempts, not one per send.
	if dials < 2 || dials > 6 {
		t.Fatalf("dial attempts = %d, want a handful (backoff), not per-send", dials)
	}
	if e.packetsErr.Value() == 0 {
		t.Fatal("send errors were not counted")
	}
}
