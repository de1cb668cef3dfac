package reliable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEnvelopeCodecRoundTrip(t *testing.T) {
	f := func(source, topic string, seqRaw uint32, payload []byte) bool {
		seq := uint64(seqRaw) + 1
		e := &Envelope{Source: source, Topic: topic, Seq: seq, Payload: payload}
		got, err := DecodeEnvelope(EncodeEnvelope(e))
		if err != nil {
			return false
		}
		return got.Source == source && got.Topic == topic && got.Seq == seq &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnvelopeRejectsZeroSeq(t *testing.T) {
	e := &Envelope{Source: "s", Topic: "t", Seq: 0}
	if _, err := DecodeEnvelope(EncodeEnvelope(e)); err == nil {
		t.Fatal("zero sequence accepted")
	}
}

func TestAckCodecRoundTrip(t *testing.T) {
	a := &Ack{Source: "pub", Topic: "a/b", Seq: 42}
	got, err := DecodeAck(EncodeAck(a))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *a {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := DecodeAck([]byte{1}); err == nil {
		t.Fatal("garbage ack accepted")
	}
}

func TestSequencerAssignsPerTopic(t *testing.T) {
	s := NewSequencer("pub")
	now := time.Unix(0, 0)
	a1 := s.Wrap("a", []byte("1"), now)
	a2 := s.Wrap("a", []byte("2"), now)
	b1 := s.Wrap("b", []byte("3"), now)
	if a1.Seq != 1 || a2.Seq != 2 || b1.Seq != 1 {
		t.Fatalf("seqs = %d %d %d", a1.Seq, a2.Seq, b1.Seq)
	}
	if s.Pending() != 3 {
		t.Fatalf("pending = %d", s.Pending())
	}
}

func TestSequencerAcknowledge(t *testing.T) {
	s := NewSequencer("pub")
	now := time.Unix(0, 0)
	env := s.Wrap("a", nil, now)
	if !s.Acknowledge("a", env.Seq) {
		t.Fatal("ack of pending returned false")
	}
	if s.Acknowledge("a", env.Seq) {
		t.Fatal("double ack returned true")
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d", s.Pending())
	}
}

func TestSequencerDueRedelivery(t *testing.T) {
	s := NewSequencer("pub")
	t0 := time.Unix(0, 0)
	s.Wrap("a", []byte("x"), t0)
	// Not yet due.
	resend, dead := s.Due(t0.Add(time.Second), 2*time.Second, 5)
	if len(resend) != 0 || len(dead) != 0 {
		t.Fatalf("premature redelivery: %d/%d", len(resend), len(dead))
	}
	// Due now.
	resend, dead = s.Due(t0.Add(3*time.Second), 2*time.Second, 5)
	if len(resend) != 1 || len(dead) != 0 {
		t.Fatalf("resend/dead = %d/%d, want 1/0", len(resend), len(dead))
	}
	// Immediately after a resend it is not due again.
	resend, _ = s.Due(t0.Add(3*time.Second+time.Millisecond), 2*time.Second, 5)
	if len(resend) != 0 {
		t.Fatal("resent twice within the interval")
	}
}

func TestSequencerDeadLetters(t *testing.T) {
	s := NewSequencer("pub")
	t0 := time.Unix(0, 0)
	s.Wrap("a", []byte("x"), t0)
	deadTotal := 0
	now := t0
	for i := 0; i < 10 && deadTotal == 0; i++ {
		now = now.Add(time.Minute)
		_, dead := s.Due(now, time.Second, 3)
		deadTotal += len(dead)
	}
	if deadTotal != 1 {
		t.Fatalf("dead letters = %d, want 1", deadTotal)
	}
	if s.Pending() != 0 {
		t.Fatal("dead-lettered event still pending")
	}
}

func TestReordererInOrder(t *testing.T) {
	r := NewReorderer()
	for seq := uint64(1); seq <= 5; seq++ {
		out := r.Offer(&Envelope{Source: "p", Topic: "t", Seq: seq})
		if len(out) != 1 || out[0].Seq != seq {
			t.Fatalf("seq %d: out = %v", seq, out)
		}
	}
}

func TestReordererGapAndRelease(t *testing.T) {
	r := NewReorderer()
	if out := r.Offer(&Envelope{Source: "p", Topic: "t", Seq: 2}); out != nil {
		t.Fatalf("gap released early: %v", out)
	}
	if out := r.Offer(&Envelope{Source: "p", Topic: "t", Seq: 3}); out != nil {
		t.Fatalf("gap released early: %v", out)
	}
	if r.Buffered() != 2 {
		t.Fatalf("buffered = %d", r.Buffered())
	}
	out := r.Offer(&Envelope{Source: "p", Topic: "t", Seq: 1})
	if len(out) != 3 || out[0].Seq != 1 || out[2].Seq != 3 {
		t.Fatalf("release = %v", out)
	}
	if r.Buffered() != 0 {
		t.Fatalf("buffered = %d after release", r.Buffered())
	}
}

func TestReordererDuplicates(t *testing.T) {
	r := NewReorderer()
	r.Offer(&Envelope{Source: "p", Topic: "t", Seq: 1})
	if out := r.Offer(&Envelope{Source: "p", Topic: "t", Seq: 1}); out != nil {
		t.Fatal("released duplicate")
	}
	r.Offer(&Envelope{Source: "p", Topic: "t", Seq: 3})
	if out := r.Offer(&Envelope{Source: "p", Topic: "t", Seq: 3}); out != nil {
		t.Fatal("released buffered duplicate")
	}
}

func TestReordererIndependentStreams(t *testing.T) {
	r := NewReorderer()
	if out := r.Offer(&Envelope{Source: "a", Topic: "t", Seq: 1}); len(out) != 1 {
		t.Fatal("stream a blocked")
	}
	if out := r.Offer(&Envelope{Source: "b", Topic: "t", Seq: 1}); len(out) != 1 {
		t.Fatal("stream b blocked by stream a")
	}
	if out := r.Offer(&Envelope{Source: "a", Topic: "u", Seq: 1}); len(out) != 1 {
		t.Fatal("topic u blocked by topic t")
	}
}

// TestReordererRandomPermutation: any permutation of 1..n must come out as
// exactly 1..n in order.
func TestReordererRandomPermutation(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := rng.Intn(40) + 1
		perm := rng.Perm(n)
		r := NewReorderer()
		var released []uint64
		for _, idx := range perm {
			seq := uint64(idx) + 1
			for _, env := range r.Offer(&Envelope{Source: "p", Topic: "t", Seq: seq,
				Payload: []byte(fmt.Sprintf("%d", seq))}) {
				released = append(released, env.Seq)
			}
		}
		if len(released) != n {
			t.Fatalf("trial %d: released %d of %d", trial, len(released), n)
		}
		for i, seq := range released {
			if seq != uint64(i)+1 {
				t.Fatalf("trial %d: position %d has seq %d", trial, i, seq)
			}
		}
	}
}

func BenchmarkSequencerWrapAck(b *testing.B) {
	s := NewSequencer("pub")
	now := time.Unix(0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := s.Wrap("topic", nil, now)
		s.Acknowledge("topic", env.Seq)
	}
}

func BenchmarkReordererInOrder(b *testing.B) {
	r := NewReorderer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Offer(&Envelope{Source: "p", Topic: "t", Seq: uint64(i) + 1})
	}
}
