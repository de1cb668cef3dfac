package event

import "testing"

// benchEvent mirrors a typical substrate publish: a topic, source, two
// headers and a 256-byte payload.
func benchEvent() *Event {
	ev := New(TypePublish, "Services/app0/Events/State", make([]byte, 256))
	ev.Source = "broker-1"
	ev.SetHeader("content-type", "octet-stream")
	ev.SetHeader("origin", "bench")
	return ev
}

// BenchmarkEventCodec measures the wire codec on the publish envelope, the
// per-frame cost paid on every hop through the substrate.
func BenchmarkEventCodec(b *testing.B) {
	ev := benchEvent()
	frame := Encode(ev)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Encode(ev)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Parse(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}
