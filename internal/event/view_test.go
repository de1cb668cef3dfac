package event

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"narada/internal/wire"
)

// checkParseMatchesDecode is the differential oracle for the in-place
// parser: on any input Parse and Decode agree on accept/reject, and on accept
// they agree on every field — including that TTLOff really is where the TTL
// byte sits, which is what link forwarding patches.
func checkParseMatchesDecode(t testing.TB, b []byte) {
	t.Helper()
	ev, derr := Decode(b)
	v, perr := Parse(b)
	if (derr == nil) != (perr == nil) {
		t.Fatalf("accept/reject differ on %d bytes: Decode err=%v, Parse err=%v", len(b), derr, perr)
	}
	if derr != nil {
		return
	}
	if v.Type != ev.Type || v.ID != ev.ID || v.Topic != ev.Topic || v.TTL != ev.TTL {
		t.Fatalf("envelope differs:\n view  %v %v %q ttl=%d\n event %v %v %q ttl=%d",
			v.Type, v.ID, v.Topic, v.TTL, ev.Type, ev.ID, ev.Topic, ev.TTL)
	}
	if b[v.TTLOff] != ev.TTL {
		t.Fatalf("b[TTLOff=%d] = %d, event TTL = %d", v.TTLOff, b[v.TTLOff], ev.TTL)
	}
	if v.Source != ev.Source {
		t.Fatalf("source: view %q, event %q", v.Source, ev.Source)
	}
	var wantNs int64
	if !ev.Timestamp.IsZero() {
		wantNs = ev.Timestamp.UnixNano()
	}
	if v.Timestamp != wantNs {
		t.Fatalf("timestamp: view %d, event %d", v.Timestamp, wantNs)
	}
	if !bytes.Equal(v.Payload, ev.Payload) {
		t.Fatalf("payload: view %d bytes, event %d bytes", len(v.Payload), len(ev.Payload))
	}
	// Repeated keys collapse in the map, so the wire count bounds it above.
	if len(ev.Headers) > v.NumHeaders || (v.NumHeaders > 0) != (len(ev.Headers) > 0) {
		t.Fatalf("header count: view %d pairs, event %d keys", v.NumHeaders, len(ev.Headers))
	}
	for k, want := range ev.Headers {
		if got := v.Header(k); got != want {
			t.Fatalf("header %q: view %q, event %q", k, got, want)
		}
	}
	if _, present := ev.Headers["\x00no-such-header"]; !present && v.Header("\x00no-such-header") != "" {
		t.Fatal("view invented a header")
	}
	if v.MsgSampled() != ev.MsgSampled() {
		t.Fatalf("MsgSampled: view %v, event %v", v.MsgSampled(), ev.MsgSampled())
	}
	vo, vh, vs := v.MsgTrace()
	if eo, eh, es := ev.MsgTrace(); vo != eo || vh != eh || vs != es {
		t.Fatalf("MsgTrace: view (%q, %d, %v), event (%q, %d, %v)", vo, vh, vs, eo, eh, es)
	}
	vi, vo, vh, vs := v.Trace()
	if ei, eo, eh, es := ev.Trace(); vi != ei || vo != eo || vh != eh || vs != es {
		t.Fatalf("Trace: view (%q, %q, %d, %v), event (%q, %q, %d, %v)", vi, vo, vh, vs, ei, eo, eh, es)
	}
}

// parseSeeds is the seed corpus shared by the fuzzer and the plain test:
// fuzz_test.go's random and bit-flipped inputs plus the shapes the walk must
// get exactly right — every truncation, trailing bytes, headers (also a
// repeated key), a zero timestamp, and topics at and just past the limit.
func parseSeeds() [][]byte {
	var seeds [][]byte
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 200; i++ {
		buf := make([]byte, rng.Intn(512))
		rng.Read(buf)
		seeds = append(seeds, buf)
	}
	blob := Encode(sampleEvent())
	for i := range blob {
		flipped := append([]byte(nil), blob...)
		flipped[i] ^= 0xFF
		seeds = append(seeds, flipped, blob[:i])
	}
	seeds = append(seeds, blob, append(append([]byte(nil), blob...), 0))

	plain := New(TypePublish, "a/b", []byte("x")) // no source, headers or timestamp
	seeds = append(seeds, Encode(plain))
	seeds = append(seeds, Encode(sampledEvent()), Encode(tracedEvent()))
	empty := New(TypeControl, "", nil)
	seeds = append(seeds, Encode(empty))

	seeds = append(seeds, repeatedKeyFrame())

	for _, n := range []int{wire.MaxStringLen, wire.MaxStringLen + 1} {
		long := New(TypePublish, strings.Repeat("t", n), nil)
		seeds = append(seeds, Encode(long))
	}
	return seeds
}

func sampledEvent() *Event {
	e := sampleEvent()
	e.SetMsgTrace("broker-1", 3)
	return e
}

// tracedEvent carries a discovery's trace context, as every frame of the
// discovery path does.
func tracedEvent() *Event {
	e := New(TypePing, "", []byte("ping-body"))
	e.SetTrace("6f1c1d3e-trace", "requester-1", 2)
	return e
}

// repeatedKeyFrame hand-encodes a frame whose header list repeats a key:
// Encode cannot produce one (it ranges a map), but a peer can put one on the
// wire, and Decode's map keeps the last occurrence.
func repeatedKeyFrame() []byte {
	var w wire.Writer
	w.Byte(magic)
	w.Byte(version)
	w.Byte(byte(TypePublish))
	w.Bytes16([16]byte{1, 2, 3})
	w.String("dup/keys")
	w.String("src")
	w.Time(time.Unix(1, 0))
	w.Byte(7)
	w.Uvarint(3)
	for _, kv := range [][2]string{{"k", "first"}, {HeaderMsgSampled, "1"}, {"k", "last"}} {
		w.String(kv[0])
		w.String(kv[1])
	}
	w.BytesField([]byte("payload"))
	return w.Bytes()
}

func TestParseMatchesDecode(t *testing.T) {
	for _, s := range parseSeeds() {
		checkParseMatchesDecode(t, s)
	}
	// Random mutations of valid frames reach the deep branches (a corrupted
	// length, a count that overruns) far more often than random bytes do.
	rng := rand.New(rand.NewSource(78))
	valid := [][]byte{Encode(sampleEvent()), Encode(sampledEvent()), Encode(tracedEvent()), repeatedKeyFrame()}
	for trial := 0; trial < 20000; trial++ {
		b := append([]byte(nil), valid[trial%len(valid)]...)
		for flips := 1 + rng.Intn(3); flips > 0; flips-- {
			b[rng.Intn(len(b))] = byte(rng.Intn(256))
		}
		if rng.Intn(4) == 0 {
			b = b[:rng.Intn(len(b)+1)]
		}
		checkParseMatchesDecode(t, b)
	}
}

// FuzzParseMatchesDecode: `go test -fuzz FuzzParseMatchesDecode ./internal/event`
// (wired into `make fuzz`).
func FuzzParseMatchesDecode(f *testing.F) {
	for _, s := range parseSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkParseMatchesDecode(t, b) })
}

func TestParseDoesNotAllocate(t *testing.T) {
	frame := Encode(sampleEvent())
	allocs := testing.AllocsPerRun(200, func() {
		v, err := Parse(frame)
		if err != nil || v.MsgSampled() {
			t.Fatal("parse of a valid unsampled frame failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Parse + header lookup allocates %.0f times per frame", allocs)
	}
}

// TestViewEventOwnsItsMemory: the materialised event shares nothing with the
// frame — the broker releases the pooled frame (which then carries another
// event) before it amends and re-encodes what View.Event returned.
func TestViewEventOwnsItsMemory(t *testing.T) {
	want := sampledEvent()
	frame := Encode(want)
	v, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	got := v.Event()
	for i := range frame {
		frame[i] = 0xAA
	}
	if got.Topic != want.Topic || got.Source != want.Source || !bytes.Equal(got.Payload, want.Payload) ||
		got.Header(HeaderMsgOrigin) != "broker-1" || len(got.Headers) != len(want.Headers) {
		t.Fatalf("materialised event changed with the frame: %+v", got)
	}
}
