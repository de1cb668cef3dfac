package wal

import "testing"

// benchPayload is sized like an encoded registration record: a broker
// advertisement with a couple of endpoints lands around 200 bytes.
var benchPayload = make([]byte, 200)

func benchAppend(b *testing.B, sync SyncPolicy) {
	l, _, _, err := Open(Options{Dir: b.TempDir(), Sync: sync})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.SetBytes(int64(len(benchPayload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendSyncAlways(b *testing.B)   { benchAppend(b, SyncAlways) }
func BenchmarkAppendSyncInterval(b *testing.B) { benchAppend(b, SyncInterval) }
func BenchmarkAppendSyncNever(b *testing.B)    { benchAppend(b, SyncNever) }

// BenchmarkRecover measures reopening a log of 10k records — the
// crash-recovery cost a restarted BDN pays before serving discovery.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	l, _, _, err := Open(Options{Dir: dir, Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	const records = 10_000
	for i := 0; i < records; i++ {
		if _, err := l.Append(benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, recovered, _, err := Open(Options{Dir: dir, Sync: SyncNever})
		if err != nil {
			b.Fatal(err)
		}
		if recovered != records {
			b.Fatalf("recovered %d, want %d", recovered, records)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay measures streaming 10k records out of the log — the cost
// of bringing a fresh standby up to date from the primary's WAL.
func BenchmarkReplay(b *testing.B) {
	l, _, _, err := Open(Options{Dir: b.TempDir(), Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	const records = 10_000
	for i := 0; i < records; i++ {
		if _, err := l.Append(benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := uint64(0)
		if err := l.Replay(1, func(index uint64, payload []byte) error {
			n++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("replayed %d, want %d", n, records)
		}
	}
}

// BenchmarkTailRead is one step of a replication stream: the primary appends
// a record and the stream reads it back by index, on one growing segment,
// under the policy the simulated testbed runs (an fsync's wall cost is
// seconds of model time there, so Replay must not pay one).
func BenchmarkTailRead(b *testing.B) {
	l, _, _, err := Open(Options{Dir: b.TempDir(), Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := l.Append(benchPayload)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := l.Replay(idx, func(uint64, []byte) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != 1 {
			b.Fatalf("replayed %d records from the tail, want 1", n)
		}
	}
}
