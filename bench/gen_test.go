package main

import (
	"bytes"
	"testing"

	"narada/internal/topics"
)

// dump renders everything a seed determines, for comparison.
func dump(w *workload, seed int64) []byte {
	in := newInputs(w, seed)
	var b bytes.Buffer
	buf := make([]byte, w.Payload)
	for seq := uint64(0); seq < 2000; seq++ {
		in.fill(buf, seq)
		b.Write(buf)
		b.WriteString(in.topic(seq))
	}
	for _, p := range in.ballast {
		b.WriteString(p)
	}
	for n := 0; n < 4*churnCycle && len(in.churn) > 0; n++ {
		p, sub, ok := in.churnOp(n)
		if ok {
			b.WriteString(p)
			b.WriteByte(map[bool]byte{true: '+', false: '-'}[sub])
		}
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := dump(w, 42), dump(w, 42)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed generated different inputs", w.Name)
		}
		if bytes.Equal(a, dump(w, 43)) {
			t.Errorf("%s: another seed generated the same inputs", w.Name)
		}
	}
}

func TestPayloadCheck(t *testing.T) {
	w := findWorkload("fanout_small")
	in := newInputs(w, 1)
	buf := make([]byte, w.Payload)
	in.fill(buf, 12345)
	if seq, ok := checkPayload(buf); !ok || seq != 12345 {
		t.Fatalf("intact payload: seq=%d ok=%v", seq, ok)
	}
	buf[20] ^= 1
	if _, ok := checkPayload(buf); ok {
		t.Error("a flipped bit passed the checksum")
	}
	if _, ok := checkPayload(buf[:5]); ok {
		t.Error("a truncated payload passed")
	}
}

// The ballast and churn patterns must never match published traffic, or the
// connections holding them would turn into subscribers.
func TestBallastAndChurnMatchNothing(t *testing.T) {
	w := findWorkload("chain_churn")
	in := newInputs(w, 7)
	if len(in.ballast) != w.Ballast || len(in.topics) != 256 {
		t.Fatalf("%d ballast patterns, %d topics", len(in.ballast), len(in.topics))
	}
	seen := map[string]bool{}
	for _, p := range append(append([]string{ballastLive, churnLive}, in.ballast...), in.churn...) {
		if err := topics.ValidatePattern(p); err != nil {
			t.Fatalf("pattern %q: %v", p, err)
		}
		if seen[p] {
			t.Fatalf("pattern %q generated twice", p)
		}
		seen[p] = true
		for _, topic := range in.topics {
			if topics.Match(p, topic) {
				t.Fatalf("pattern %q matches published topic %q", p, topic)
			}
		}
	}
	for _, topic := range in.topics {
		if !topics.Match(in.pattern, topic) || topics.Validate(topic) != nil {
			t.Fatalf("topic %q is not a valid topic matched by %q", topic, in.pattern)
		}
	}
}

func TestChurnKeepsABoundedWindow(t *testing.T) {
	in := newInputs(findWorkload("chain_churn"), 3)
	liveSet := map[string]bool{}
	for n := 0; n < 6*churnCycle; n++ {
		p, sub, ok := in.churnOp(n)
		if !ok {
			continue
		}
		if sub {
			if liveSet[p] {
				t.Fatalf("op %d subscribes %q twice", n, p)
			}
			liveSet[p] = true
		} else {
			if !liveSet[p] {
				t.Fatalf("op %d unsubscribes %q, which is not subscribed", n, p)
			}
			delete(liveSet, p)
		}
		if len(liveSet) > churnWindow+1 {
			t.Fatalf("op %d: %d churn subscriptions live", n, len(liveSet))
		}
	}
}
