package fragment

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func randomPayload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// compressiblePayload repeats a short phrase so gzip actually shrinks it.
func compressiblePayload(n int) []byte {
	phrase := []byte("NaradaBrokering broker discovery payload ")
	out := make([]byte, 0, n)
	for len(out) < n {
		out = append(out, phrase...)
	}
	return out[:n]
}

func reassemble(t *testing.T, frags []*Fragment, shuffleSeed int64) []byte {
	t.Helper()
	order := rand.New(rand.NewSource(shuffleSeed)).Perm(len(frags))
	c := NewCoalescer(0, nil)
	for i, idx := range order {
		payload, done, err := c.Add(frags[idx])
		if err != nil {
			t.Fatal(err)
		}
		if done != (i == len(order)-1) {
			t.Fatalf("done=%v at fragment %d/%d", done, i+1, len(order))
		}
		if done {
			return payload
		}
	}
	t.Fatal("set never completed")
	return nil
}

func TestSplitCoalesceRoundTrip(t *testing.T) {
	for _, size := range []int{0, 1, 100, DefaultFragmentSize, DefaultFragmentSize + 1, 200000} {
		payload := randomPayload(size, int64(size))
		frags, err := Split(payload, Config{})
		if err != nil {
			t.Fatal(err)
		}
		wantFrags := (size + DefaultFragmentSize - 1) / DefaultFragmentSize
		if wantFrags == 0 {
			wantFrags = 1
		}
		if len(frags) != wantFrags {
			t.Fatalf("size %d: %d fragments, want %d", size, len(frags), wantFrags)
		}
		got := reassemble(t, frags, int64(size)+7)
		if !bytes.Equal(got, payload) {
			t.Fatalf("size %d: reassembled payload differs", size)
		}
	}
}

func TestCompressionRoundTrip(t *testing.T) {
	payload := compressiblePayload(100000)
	frags, err := Split(payload, Config{Compress: true, FragmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if !frags[0].Compressed {
		t.Fatal("compressible payload not compressed")
	}
	var carried int
	for _, f := range frags {
		carried += len(f.Data)
	}
	if carried >= len(payload) {
		t.Fatalf("compression did not shrink: %d >= %d", carried, len(payload))
	}
	got := reassemble(t, frags, 3)
	if !bytes.Equal(got, payload) {
		t.Fatal("compressed round trip mismatch")
	}
}

func TestIncompressibleSkipsCompression(t *testing.T) {
	payload := randomPayload(50000, 9) // random bytes do not compress
	frags, err := Split(payload, Config{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if frags[0].Compressed {
		t.Fatal("incompressible payload marked compressed")
	}
	got := reassemble(t, frags, 5)
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch")
	}
}

func TestSmallPayloadSkipsCompression(t *testing.T) {
	frags, err := Split(compressiblePayload(100), Config{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if frags[0].Compressed {
		t.Fatal("payload below MinCompressSize compressed")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(data []byte, index, totalRaw uint16) bool {
		total := uint32(totalRaw%100) + 1
		idx := uint32(index) % total
		frags, err := Split(data, Config{FragmentSize: 64})
		if err != nil || len(frags) == 0 {
			return false
		}
		_ = idx
		for _, orig := range frags {
			got, err := Decode(Encode(orig))
			if err != nil {
				return false
			}
			if got.SetID != orig.SetID || got.Index != orig.Index ||
				got.Total != orig.Total || !bytes.Equal(got.Data, orig.Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	frags, _ := Split([]byte("hello fragment world"), Config{FragmentSize: 8})
	blob := Encode(frags[0])
	blob[len(blob)-1] ^= 0xFF // flip a data byte; checksum must catch it
	if _, err := Decode(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if _, err := Decode(blob[:3]); err == nil {
		t.Fatal("truncated fragment accepted")
	}
}

func TestDecodeRejectsInconsistentIndex(t *testing.T) {
	frags, _ := Split([]byte("x"), Config{})
	f := *frags[0]
	f.Index = 5 // beyond Total=1
	if _, err := Decode(Encode(&f)); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
}

func TestCoalescerDuplicatesIgnored(t *testing.T) {
	frags, _ := Split(randomPayload(1000, 2), Config{FragmentSize: 256})
	c := NewCoalescer(0, nil)
	for i := 0; i < 3; i++ {
		if _, done, err := c.Add(frags[0]); err != nil || done {
			t.Fatalf("dup add %d: done=%v err=%v", i, done, err)
		}
	}
	for _, f := range frags[1:] {
		if _, done, _ := c.Add(f); done {
			payload, _, _ := []byte(nil), false, error(nil)
			_ = payload
		}
	}
	// Re-add the full set in order and ensure it completes exactly once.
	frags2, _ := Split(randomPayload(1000, 3), Config{FragmentSize: 256})
	completions := 0
	for _, f := range frags2 {
		if _, done, err := c.Add(f); err != nil {
			t.Fatal(err)
		} else if done {
			completions++
		}
	}
	if completions != 1 {
		t.Fatalf("completions = %d, want 1", completions)
	}
}

func TestCoalescerInterleavedSets(t *testing.T) {
	a, _ := Split(randomPayload(5000, 4), Config{FragmentSize: 512})
	b, _ := Split(randomPayload(5000, 5), Config{FragmentSize: 512})
	c := NewCoalescer(0, nil)
	doneCount := 0
	for i := 0; i < len(a); i++ {
		if _, done, err := c.Add(a[i]); err != nil {
			t.Fatal(err)
		} else if done {
			doneCount++
		}
		if _, done, err := c.Add(b[i]); err != nil {
			t.Fatal(err)
		} else if done {
			doneCount++
		}
	}
	if doneCount != 2 {
		t.Fatalf("completed %d sets, want 2", doneCount)
	}
	if c.Pending() != 0 {
		t.Fatalf("pending = %d after completion", c.Pending())
	}
}

func TestCoalescerMismatchedMetadata(t *testing.T) {
	frags, _ := Split(randomPayload(2000, 6), Config{FragmentSize: 512})
	c := NewCoalescer(0, nil)
	if _, _, err := c.Add(frags[0]); err != nil {
		t.Fatal(err)
	}
	bad := *frags[1]
	bad.Total = 99
	if _, _, err := c.Add(&bad); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
}

func TestCoalescerExpiry(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	c := NewCoalescer(10*time.Second, clock)
	frags, _ := Split(randomPayload(2000, 7), Config{FragmentSize: 512})
	if _, _, err := c.Add(frags[0]); err != nil {
		t.Fatal(err)
	}
	if c.Pending() != 1 {
		t.Fatalf("pending = %d", c.Pending())
	}
	now = now.Add(time.Minute)
	// Any Add triggers eviction of the stale set.
	other, _ := Split([]byte("tiny"), Config{})
	if _, done, err := c.Add(other[0]); err != nil || !done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	if c.Pending() != 0 {
		t.Fatalf("stale set survived eviction: pending=%d", c.Pending())
	}
	// Completing the evicted set now requires all fragments again.
	for i, f := range frags {
		_, done, err := c.Add(f)
		if err != nil {
			t.Fatal(err)
		}
		if done != (i == len(frags)-1) {
			t.Fatalf("done=%v at %d", done, i)
		}
	}
}

func BenchmarkSplit(b *testing.B) {
	payload := randomPayload(256*1024, 1)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Split(payload, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSplitCompress(b *testing.B) {
	payload := compressiblePayload(256 * 1024)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Split(payload, Config{Compress: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoalesce(b *testing.B) {
	payload := randomPayload(256*1024, 2)
	frags, _ := Split(payload, Config{})
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCoalescer(0, nil)
		for _, f := range frags {
			if _, _, err := c.Add(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}
