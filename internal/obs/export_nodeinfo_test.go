package obs

import (
	"sync"
	"testing"
	"time"

	"narada/internal/wire"
)

// memorySink captures every datagram the exporter writes.
type memorySink struct {
	mu  sync.Mutex
	fms [][]byte
}

func (s *memorySink) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.fms = append(s.fms, append([]byte(nil), p...))
	s.mu.Unlock()
	return len(p), nil
}

func (s *memorySink) frames() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.fms...)
}

func TestNodeInfoPacketRoundTrip(t *testing.T) {
	at := time.Unix(1120176060, 123456789).UTC()
	frame := EncodeNodeInfoPacket("broker-7", 5*time.Millisecond, at, "127.0.0.1:9411", true)
	p, err := DecodeExportPacket(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !p.NodeInfo {
		t.Fatal("NodeInfo flag not set")
	}
	if p.Node != "broker-7" || p.Offset != 5*time.Millisecond {
		t.Errorf("header: node=%q offset=%v", p.Node, p.Offset)
	}
	if !p.InfoAt.Equal(at) {
		t.Errorf("InfoAt = %v, want %v", p.InfoAt, at)
	}
	if p.TelemetryAddr != "127.0.0.1:9411" {
		t.Errorf("TelemetryAddr = %q", p.TelemetryAddr)
	}
	if !p.ProfilesOn {
		t.Error("ProfilesOn lost")
	}

	// Announcement with profiles off.
	frame = EncodeNodeInfoPacket("bdn-1", 0, at, "10.0.0.2:8080", false)
	p, err = DecodeExportPacket(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if p.ProfilesOn {
		t.Error("ProfilesOn = true, want false")
	}
}

// There is one export wire version: every binary builds from this tree, so a
// packet stamped with any other version — older or newer — is rejected.
func TestOtherVersionsRejected(t *testing.T) {
	for _, v := range []byte{0, 1, 2, 3, 4, exportVersion + 1} {
		frame := EncodeSpanPacket("n1", 0, sampleSpans())
		frame[1] = v // rewrite the version byte
		if _, err := DecodeExportPacket(frame); err == nil {
			t.Errorf("v%d span packet decoded, want rejection", v)
		}
	}
}

func TestNodeInfoCorruptAndTruncated(t *testing.T) {
	at := time.Unix(1120176060, 0)
	good := EncodeNodeInfoPacket("n1", 0, at, "127.0.0.1:9411", true)

	for cut := 1; cut < len(good); cut++ {
		if _, err := DecodeExportPacket(good[:cut]); err == nil {
			t.Errorf("truncation at %d bytes decoded without error", cut)
		}
	}

	// Addr string claiming more bytes than the datagram holds.
	w := wire.GetWriter(64)
	w.Byte(0xb8)
	w.Byte(exportVersion)
	w.Byte(5) // packetNodeInfo
	w.String("n1")
	w.Duration(0)
	w.Time(at)
	w.Uvarint(1 << 20) // string length prefix with no payload
	frame := w.Detach()
	w.Release()
	if _, err := DecodeExportPacket(frame); err == nil {
		t.Error("oversized addr length decoded without error")
	}
}

func TestExporterShipsNodeInfo(t *testing.T) {
	sink := &memorySink{}
	e := newExporterWithSink(ExporterConfig{
		Node:            "broker-7",
		MetricsInterval: -1, // no periodic loop; Close ships the final snapshot
		Registry:        NewRegistry(),
	}, sink)
	e.AnnounceTelemetry("127.0.0.1:9411", true)
	_ = e.Close()

	var got *ExportPacket
	for _, frame := range sink.frames() {
		p, err := DecodeExportPacket(frame)
		if err != nil {
			t.Fatalf("decode shipped frame: %v", err)
		}
		if p.NodeInfo {
			got = p
			break
		}
	}
	if got == nil {
		t.Fatal("no node-info packet shipped after AnnounceTelemetry")
	}
	if got.TelemetryAddr != "127.0.0.1:9411" || !got.ProfilesOn {
		t.Errorf("announcement = %q profiles=%v", got.TelemetryAddr, got.ProfilesOn)
	}
}
