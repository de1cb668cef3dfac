package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
)

// Payload layout, private to the benchmark: an 8-byte big-endian sequence
// number, seeded bytes, and a CRC-32 of everything before it. Due times live
// in a generator-side array indexed by the sequence, and frames are built
// with event.New/event.Encode only, so nothing here depends on the codec's
// byte layout.
const (
	seqLen      = 8
	crcLen      = 4
	minPayload  = seqLen + crcLen
	poolBytes   = 256 << 10 // seeded bytes the payload bodies are windows of
	ballastLive = "bench/ready/ballast"
	churnLive   = "bench/ready/churn"
	churnWindow = 32   // churn subscriptions live at any time
	churnCycle  = 1024 // distinct churn patterns before the rotation repeats
)

// inputs is everything a workload's traffic is made from. The seed
// determines payload bytes, topic order, ballast patterns and churn order;
// the program under test receives only the generated traffic.
type inputs struct {
	w       *workload
	pool    []byte   // poolBytes + body length of seeded bytes
	topics  []string // publish topics, cycled in this order
	pattern string   // what the verifying subscriber and the sinks subscribe to
	ballast []string // non-matching patterns held by the ballast connection
	churn   []string // non-matching patterns rotated by the churn connection
}

func newInputs(w *workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{w: w}
	in.pool = make([]byte, poolBytes+w.Payload-minPayload)
	rng.Read(in.pool)
	if !w.Chain {
		in.pattern = "bench/" + w.Name + "/t"
		in.topics = []string{in.pattern}
		return in
	}
	in.pattern = "bench/c/*/*"
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			in.topics = append(in.topics, fmt.Sprintf("bench/c/%d/%d", i, j))
		}
	}
	rng.Shuffle(len(in.topics), func(a, b int) { in.topics[a], in.topics[b] = in.topics[b], in.topics[a] })
	// Ballast shares prefixes with the published topics, so the matcher has
	// to walk into it, but no pattern matches a 4-segment bench/c topic.
	for k := 0; k < w.Ballast; k++ {
		i, j := rng.Intn(16), rng.Intn(16)
		var p string
		switch rng.Intn(5) {
		case 0:
			p = fmt.Sprintf("bench/c/%d/%d/x%d", i, j, k)
		case 1:
			p = fmt.Sprintf("bench/c/*/%d/y%d/**", j, k)
		case 2:
			p = fmt.Sprintf("bench/c/%d/*/z%d", i, k)
		case 3:
			p = fmt.Sprintf("bench/d/%d/**", k)
		default:
			p = fmt.Sprintf("other/%d/*/**", k)
		}
		in.ballast = append(in.ballast, p)
	}
	for k := 0; k < churnCycle; k++ {
		in.churn = append(in.churn, fmt.Sprintf("bench/c/%d/%d/churn%d", rng.Intn(16), rng.Intn(16), k))
	}
	return in
}

// topic returns the topic the seq-th event is published on.
func (in *inputs) topic(seq uint64) string {
	return in.topics[seq%uint64(len(in.topics))]
}

// fill writes the seq-th payload into buf, which must be w.Payload long.
func (in *inputs) fill(buf []byte, seq uint64) {
	binary.BigEndian.PutUint64(buf, seq)
	body := len(buf) - minPayload
	off := int(seq * 2654435761 % poolBytes)
	copy(buf[seqLen:], in.pool[off:off+body])
	binary.BigEndian.PutUint32(buf[len(buf)-crcLen:], crc32.ChecksumIEEE(buf[:len(buf)-crcLen]))
}

// checkPayload verifies a received payload's checksum and returns its
// sequence number.
func checkPayload(p []byte) (seq uint64, ok bool) {
	if len(p) < minPayload {
		return 0, false
	}
	sum := binary.BigEndian.Uint32(p[len(p)-crcLen:])
	if crc32.ChecksumIEEE(p[:len(p)-crcLen]) != sum {
		return 0, false
	}
	return binary.BigEndian.Uint64(p), true
}

// churnOp returns the n-th churn operation: even operations subscribe the
// next pattern of the cycle, odd ones unsubscribe the pattern subscribed
// churnWindow subscriptions earlier (nothing, while the window fills).
func (in *inputs) churnOp(n int) (pattern string, subscribe, ok bool) {
	m := n / 2
	if n%2 == 0 {
		return in.churn[m%churnCycle], true, true
	}
	if m < churnWindow {
		return "", false, false
	}
	return in.churn[(m-churnWindow)%churnCycle], false, true
}
