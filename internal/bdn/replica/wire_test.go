package replica

import (
	"bytes"
	"testing"
	"time"
)

// reencodeMessage builds m's frame again from its decoded fields alone.
func reencodeMessage(m *message) []byte {
	switch m.typ {
	case msgHello:
		return encodeHello(m.addr)
	case msgBeat:
		return encodeBeat(m.name, m.addr, m.epoch, m.lease, m.lastIndex)
	case msgRecords:
		return encodeRecords(m.epoch, m.from, m.recs)
	case msgSnapshot:
		return encodeSnapshot(m.epoch, m.index, m.state)
	}
	return encodeApplied(m.index)
}

// wireCases is one frame of each of the five message types.
func wireCases() [][]byte {
	return [][]byte{
		encodeHello("bloomington/repl-a:7"),
		encodeBeat("repl-a", "bloomington/repl-a:7", 3, 2*time.Second, 41),
		encodeRecords(3, 42, [][]byte{[]byte("one"), []byte("two")}),
		encodeSnapshot(3, 41, []byte("table")),
		encodeApplied(43),
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	for i, frame := range wireCases() {
		m, err := decodeMessage(frame)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if m.typ != byte(i+1) || !bytes.Equal(reencodeMessage(m), frame) {
			t.Fatalf("case %d: type %d, re-encode mismatch", i, m.typ)
		}
	}
	// {wireMagic, 1, 6, 43} is a version-1 ack: a mixed-version cluster
	// fails at the header instead of misreading a renumbered type.
	for _, garbage := range [][]byte{nil, {wireMagic}, {wireMagic, wireVersion, 99}, {0, wireVersion, msgApplied, 1},
		{wireMagic, wireVersion, msgRecords, 1, 1, 0xFF, 0xFF, 0x03}, {wireMagic, 1, 6, 43}} {
		if _, err := decodeMessage(garbage); err == nil {
			t.Fatalf("decodeMessage(%v) accepted garbage", garbage)
		}
	}
}

// FuzzReplicaMessage: what a peer sends never panics the decoder, a batch
// cannot claim more records than maxBatchRecords, and an accepted frame
// re-encodes to one that decodes the same.
func FuzzReplicaMessage(f *testing.F) {
	for _, frame := range wireCases() {
		f.Add(frame)
	}
	f.Add(encodeRecords(3, 42, nil))
	f.Add(encodeSnapshot(3, 0, nil))
	f.Add([]byte{wireMagic, 1, 6, 43})
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := decodeMessage(frame)
		if err != nil {
			return
		}
		if len(m.recs) > maxBatchRecords {
			t.Fatalf("batch of %d records accepted", len(m.recs))
		}
		again := reencodeMessage(m)
		m2, err := decodeMessage(again)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !bytes.Equal(reencodeMessage(m2), again) {
			t.Fatalf("message changed across a round trip: %x → %x", again, reencodeMessage(m2))
		}
	})
}
