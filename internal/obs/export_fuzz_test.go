package obs

import (
	"testing"
	"time"

	"narada/internal/wire"
)

// corruptCases builds a set of malformed export datagrams alongside the valid
// frames they were derived from. Shared by the table test and the fuzz seed
// corpus.
func corruptCases() map[string][]byte {
	spanFrame := EncodeSpanPacket("n1", 5*time.Millisecond, sampleSpans())
	metricFrames := EncodeMetricsPackets("n1", 0, time.Unix(1120176060, 0), 3, sampleFamilies(), 0)

	truncated := append([]byte(nil), metricFrames[0]...)
	truncated = truncated[:len(truncated)/2]

	badMagic := append([]byte(nil), spanFrame...)
	badMagic[0] = 0x42

	badVersion := append([]byte(nil), spanFrame...)
	badVersion[1] = 0x7f

	// Header claiming 2^40 spans follow: must be rejected by the list bound,
	// not trusted as an allocation size.
	w := wire.GetWriter(64)
	w.Byte(0xb8)
	w.Byte(exportVersion)
	w.Byte(1) // packetSpans
	w.String("n1")
	w.Duration(0)
	w.Uvarint(1 << 40)
	hugeSpans := w.Detach()
	w.Release()

	// Metrics packet whose histogram series claims 2^30 buckets.
	w = wire.GetWriter(128)
	w.Byte(0xb8)
	w.Byte(exportVersion)
	w.Byte(2) // packetMetrics
	w.String("n1")
	w.Duration(0)
	w.Time(time.Unix(0, 0))
	w.Uvarint(1)       // seq
	w.Uvarint(1)       // one family
	w.String("m")      // name
	w.String("")       // help
	w.Byte(2)          // histogram
	w.Uvarint(1)       // one series
	w.Uvarint(0)       // no labels
	w.Uvarint(1 << 30) // bucket bound count
	hugeBuckets := w.Detach()
	w.Release()

	// Event packet claiming 2^32 events: rejected by the list bound.
	w = wire.GetWriter(64)
	w.Byte(0xb8)
	w.Byte(exportVersion)
	w.Byte(4) // packetEvents
	w.String("n1")
	w.Duration(0)
	w.Time(time.Unix(0, 0))
	w.Uvarint(1 << 32)
	hugeEvents := w.Detach()
	w.Release()

	// Valid event frame cut mid-entry: the reader's error must fail the
	// whole packet rather than yield a half-decoded event.
	eventFrame := EncodeEventsPacket("n1", 5*time.Millisecond, time.Unix(1120176060, 0), sampleEvents())
	truncatedEvents := append([]byte(nil), eventFrame...)
	truncatedEvents = truncatedEvents[:len(truncatedEvents)-7]

	// Node-info frame cut mid-address string .
	infoFrame := EncodeNodeInfoPacket("n1", 5*time.Millisecond, time.Unix(1120176060, 0), "127.0.0.1:9411", true)
	truncatedInfo := append([]byte(nil), infoFrame...)
	truncatedInfo = truncatedInfo[:len(truncatedInfo)-5]

	return map[string][]byte{
		"truncated chunk":     truncated,
		"bad magic":           badMagic,
		"bad version":         badVersion,
		"oversized spans":     hugeSpans,
		"oversized buckets":   hugeBuckets,
		"oversized events":    hugeEvents,
		"truncated events":    truncatedEvents,
		"truncated node-info": truncatedInfo,
		"empty":               {},
		"header only":         spanFrame[:3],
	}
}

// TestDecodeCorruptExportPackets asserts every corruption is rejected with an
// error — no panic, no partially-trusted result.
func TestDecodeCorruptExportPackets(t *testing.T) {
	for name, frame := range corruptCases() {
		if pkt, err := DecodeExportPacket(frame); err == nil {
			t.Errorf("%s: decoded without error: %+v", name, pkt)
		}
	}
}

// FuzzDecodeExportPacket hammers the varint decoder with mutated frames. The
// invariant is totality: any byte string either decodes into a bounded packet
// or errors — never panics, never allocates unbounded lists.
func FuzzDecodeExportPacket(f *testing.F) {
	f.Add(EncodeSpanPacket("n1", 5*time.Millisecond, sampleSpans()))
	for _, frame := range EncodeMetricsPackets("n1", 0, time.Unix(1120176060, 0), 3, sampleFamilies(), 0) {
		f.Add(frame)
	}
	f.Add(EncodeEventsPacket("n1", 5*time.Millisecond, time.Unix(1120176060, 0), sampleEvents()))
	f.Add(EncodeNodeInfoPacket("n1", 5*time.Millisecond, time.Unix(1120176060, 0), "127.0.0.1:9411", true))
	for _, frame := range corruptCases() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, err := DecodeExportPacket(data)
		if err != nil {
			return
		}
		if len(pkt.Spans) > wire.MaxListLen {
			t.Fatalf("decoded %d spans past the list bound", len(pkt.Spans))
		}
		if len(pkt.Families) > wire.MaxListLen {
			t.Fatalf("decoded %d families past the list bound", len(pkt.Families))
		}
		if len(pkt.Events) > wire.MaxListLen {
			t.Fatalf("decoded %d events past the list bound", len(pkt.Events))
		}
		for _, fam := range pkt.Families {
			for _, s := range fam.Series {
				if len(s.Buckets) > wire.MaxListLen+1 {
					t.Fatalf("decoded %d buckets past the list bound", len(s.Buckets))
				}
			}
		}
	})
}
