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

// BenchmarkReplay measures reading 10k records out of the log — the cost of
// replaying a WAL suffix at recovery.
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
