package obs

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestFlowsPacketRoundTrip(t *testing.T) {
	at := time.Date(2026, 8, 7, 10, 30, 0, 123456789, time.UTC)
	flows := []FlowSnapshot{
		{Topic: "sensors/temp", PubMsgs: 900, PubBytes: 90_000, DelMsgs: 850, DelBytes: 85_000,
			Drops: [NumDropReasons]uint64{40, 9, 1}, ErrBound: 12},
		{Topic: FlowOther, DelMsgs: 7, DelBytes: 700, Drops: [NumDropReasons]uint64{3, 0, 0}},
	}
	pkt, err := DecodeExportPacket(EncodeFlowsPacket("broker-1", 5*time.Millisecond, at, flows))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if pkt.Node != "broker-1" || pkt.Offset != 5*time.Millisecond {
		t.Fatalf("header = %q %v", pkt.Node, pkt.Offset)
	}
	if !pkt.FlowsAt.Equal(at) {
		t.Fatalf("FlowsAt = %v, want %v", pkt.FlowsAt, at)
	}
	if pkt.Families != nil || pkt.Spans != nil {
		t.Fatal("flows packet decoded with spans or families")
	}
	// The decoder derives the per-reason and total convenience fields.
	want := make([]FlowSnapshot, len(flows))
	copy(want, flows)
	for i := range want {
		want[i].finishDrops()
	}
	if !reflect.DeepEqual(pkt.Flows, want) {
		t.Fatalf("flows round-trip:\n got %+v\nwant %+v", pkt.Flows, want)
	}
	if got := pkt.Flows[0]; got.DropQueue != 40 || got.DropConn != 9 || got.DropLarge != 1 || got.DropMsgs != 50 {
		t.Fatalf("derived drop fields: %+v", got)
	}
}

func TestFlowsPacketEmpty(t *testing.T) {
	pkt, err := DecodeExportPacket(EncodeFlowsPacket("b", 0, time.Unix(1, 0), nil))
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if len(pkt.Flows) != 0 {
		t.Fatalf("empty flows decoded as %+v", pkt.Flows)
	}
}

// TestExporterShipsFlows wires a Flows callback into the exporter and checks
// every metrics interval also ships a flow packet — and that an empty table
// ships nothing (no point waking the collector for zero rows).
func TestExporterShipsFlows(t *testing.T) {
	var mu sync.Mutex
	var packets [][]byte
	capture := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		packets = append(packets, append([]byte(nil), p...))
		return len(p), nil
	})

	ft := NewFlowTable(4)
	ft.Published("alpha", 64).Delivered(64)
	e := newExporterWithSink(ExporterConfig{
		Addr: "sink", Node: "b1",
		MetricsInterval: time.Hour, // only the final flush ships
	}, capture)
	e.SetFlows(ft.Snapshot)
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	sawFlows := false
	for _, raw := range packets {
		pkt, err := DecodeExportPacket(raw)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(pkt.Flows) > 0 {
			sawFlows = true
			if pkt.Flows[0].Topic != "alpha" || pkt.Flows[0].DelMsgs != 1 {
				t.Fatalf("shipped flows = %+v", pkt.Flows)
			}
		}
	}
	if !sawFlows {
		t.Fatal("exporter with a populated flow table never shipped a flows packet")
	}

	// An exporter whose table is empty ships no flow packets at all.
	packets = packets[:0]
	empty := newExporterWithSink(ExporterConfig{
		Addr: "sink", Node: "b2",
		MetricsInterval: time.Hour,
	}, capture)
	empty.SetFlows(NewFlowTable(4).Snapshot)
	if err := empty.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for _, raw := range packets {
		pkt, err := DecodeExportPacket(raw)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(pkt.Flows) > 0 {
			t.Fatalf("empty flow table still shipped %+v", pkt.Flows)
		}
	}
}
