package event

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"narada/internal/uuid"
)

func sampleEvent() *Event {
	e := New(TypePublish, "Services/BrokerDiscoveryNodes/BrokerAdvertisement", []byte("body"))
	e.Source = "broker-fsu-1"
	e.Timestamp = time.Date(2005, 7, 1, 9, 0, 0, 0, time.UTC)
	e.SetHeader("geo", "Tallahassee, FL")
	e.SetHeader("institution", "FSU")
	return e
}

func TestNewDefaults(t *testing.T) {
	e := New(TypePing, "a/b", nil)
	if e.ID.IsNil() {
		t.Fatal("New did not assign an ID")
	}
	if e.TTL != DefaultTTL {
		t.Fatalf("TTL = %d, want %d", e.TTL, DefaultTTL)
	}
	if e.Type != TypePing || e.Topic != "a/b" {
		t.Fatalf("envelope wrong: %+v", e)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := sampleEvent()
	got, err := Decode(Encode(e))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != e.Type || got.ID != e.ID || got.Topic != e.Topic ||
		got.Source != e.Source || !got.Timestamp.Equal(e.Timestamp) || got.TTL != e.TTL {
		t.Fatalf("envelope mismatch:\n got %+v\nwant %+v", got, e)
	}
	if string(got.Payload) != "body" {
		t.Fatalf("payload = %q", got.Payload)
	}
	if got.Header("geo") != "Tallahassee, FL" || got.Header("institution") != "FSU" {
		t.Fatalf("headers = %v", got.Headers)
	}
}

func TestDecodePropertyRoundTrip(t *testing.T) {
	f := func(id [16]byte, topic, source, payload string, ttl uint8, typeRaw uint8) bool {
		typ := Type(typeRaw%uint8(typeMax-1)) + 1
		e := &Event{
			Type:    typ,
			ID:      uuid.UUID(id),
			Topic:   topic,
			Source:  source,
			TTL:     ttl,
			Payload: []byte(payload),
		}
		got, err := Decode(Encode(e))
		if err != nil {
			return false
		}
		return got.Type == typ && got.ID == e.ID && got.Topic == topic &&
			got.Source == source && got.TTL == ttl && string(got.Payload) == payload
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	b := Encode(sampleEvent())
	b[0] = 0x00
	if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v, want bad-magic error", err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	b := Encode(sampleEvent())
	b[1] = 99
	if _, err := Decode(b); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v, want version error", err)
	}
}

func TestDecodeRejectsInvalidType(t *testing.T) {
	e := sampleEvent()
	e.Type = typeMax
	if _, err := Decode(Encode(e)); err == nil {
		t.Fatal("invalid type accepted")
	}
	e.Type = TypeInvalid
	if _, err := Decode(Encode(e)); err == nil {
		t.Fatal("zero type accepted")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	b := Encode(sampleEvent())
	for _, cut := range []int{0, 1, 5, len(b) / 2, len(b) - 1} {
		if _, err := Decode(b[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsTrailing(t *testing.T) {
	b := append(Encode(sampleEvent()), 0xFF)
	if _, err := Decode(b); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestTypeString(t *testing.T) {
	if TypeDiscoveryRequest.String() != "discovery-request" {
		t.Fatalf("String = %q", TypeDiscoveryRequest.String())
	}
	if !strings.Contains(Type(200).String(), "200") {
		t.Fatalf("unknown type String = %q", Type(200).String())
	}
}

func TestTypeValid(t *testing.T) {
	for typ := TypePublish; typ < typeMax; typ++ {
		if !typ.Valid() {
			t.Errorf("type %v reported invalid", typ)
		}
	}
	if TypeInvalid.Valid() || typeMax.Valid() {
		t.Error("out-of-range type reported valid")
	}
}

func BenchmarkEncode(b *testing.B) {
	e := sampleEvent()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Encode(e)
	}
}

func BenchmarkDecode(b *testing.B) {
	buf := Encode(sampleEvent())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTraceContextRoundTrip pins the trace-context header contract: SetTrace
// populates the reserved headers, Trace reads them back, and both survive the
// wire — so a request UUID, origin node and hop count propagate across every
// discovery frame untouched.
func TestTraceContextRoundTrip(t *testing.T) {
	ev := New(TypeDiscoveryRequest, "topic", []byte("payload"))
	if _, _, _, ok := ev.Trace(); ok {
		t.Fatal("fresh event claims trace context")
	}
	ev.SetTrace("6ba7b810-9dad-11d1-80b4-00c04fd430c8", "requester-1", 3)

	decoded, err := Decode(Encode(ev))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	id, origin, hop, ok := decoded.Trace()
	if !ok || id != "6ba7b810-9dad-11d1-80b4-00c04fd430c8" || origin != "requester-1" || hop != 3 {
		t.Fatalf("Trace() = %q %q %d %v after round-trip", id, origin, hop, ok)
	}

	// Re-stamping overwrites in place (brokers bump the hop on fan-out).
	decoded.SetTrace(id, origin, 4)
	if _, _, hop, _ = decoded.Trace(); hop != 4 {
		t.Fatalf("hop = %d after re-stamp, want 4", hop)
	}
}

func TestMsgTraceHeadersRoundTrip(t *testing.T) {
	ev := New(TypePublish, "sensors/temp", []byte("p"))
	if ev.MsgSampled() {
		t.Fatal("fresh event claims sampled")
	}
	if _, _, sampled := ev.MsgTrace(); sampled {
		t.Fatal("fresh event yields trace headers")
	}

	ev.SetMsgTrace("broker-a", 0)
	if !ev.MsgSampled() {
		t.Fatal("sampled flag lost after SetMsgTrace")
	}

	// The verdict must survive the wire: this is what carries sampling
	// across broker links.
	decoded, err := Decode(Encode(ev))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	origin, hop, sampled := decoded.MsgTrace()
	if !sampled || origin != "broker-a" || hop != 0 {
		t.Fatalf("MsgTrace() = %q %d %v after round-trip", origin, hop, sampled)
	}

	// Forwarding brokers advance only the hop header.
	decoded.SetHeader(HeaderMsgHop, "3")
	if _, hop, _ = decoded.MsgTrace(); hop != 3 {
		t.Fatalf("hop = %d after re-stamp, want 3", hop)
	}
}

func TestMsgTraceMalformedHop(t *testing.T) {
	ev := New(TypePublish, "a", nil)
	ev.SetHeader(HeaderMsgSampled, "1")
	ev.SetHeader(HeaderMsgOrigin, "b1")
	for _, bad := range []string{"", "x", "-1", "256", "9999999999999999999"} {
		ev.SetHeader(HeaderMsgHop, bad)
		origin, hop, sampled := ev.MsgTrace()
		if !sampled || origin != "b1" || hop != 0 {
			t.Fatalf("hop %q: MsgTrace() = %q %d %v, want b1/0/true", bad, origin, hop, sampled)
		}
	}
}
