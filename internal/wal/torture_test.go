package wal

// Torture tests: simulate the crash shapes a WAL must survive — torn tail
// records, bit flips, truncated segments — and assert recovery keeps every
// fully-synced record and discards only the damaged suffix.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// fillLog writes n records (deterministic contents) with SyncAlways and
// closes the log, returning the expected payloads by index.
func fillLog(t *testing.T, dir string, n int, segBytes int64) map[uint64][]byte {
	t.Helper()
	l, _, _, err := Open(Options{Dir: dir, SegmentBytes: segBytes, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64][]byte{}
	for i := 1; i <= n; i++ {
		payload := []byte(fmt.Sprintf("payload-%04d-%s", i, bytes.Repeat([]byte{byte(i)}, i%37)))
		idx, err := l.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		want[idx] = payload
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

func segPaths(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	return paths
}

// verifyPrefix reopens the log and asserts it contains exactly the records
// 1..len(got) and that each matches want.
func verifyPrefix(t *testing.T, dir string, want map[uint64][]byte, wantTruncated bool) uint64 {
	t.Helper()
	l, recovered, truncated, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer l.Close()
	if truncated != wantTruncated {
		t.Fatalf("truncated = %v, want %v", truncated, wantTruncated)
	}
	last := l.LastIndex()
	var n uint64
	err = l.Replay(1, func(i uint64, p []byte) error {
		n++
		if n != i {
			return fmt.Errorf("gap: replay hit index %d as record %d", i, n)
		}
		if !bytes.Equal(p, want[i]) {
			return fmt.Errorf("record %d corrupted after recovery", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != last {
		t.Fatalf("replayed %d records but LastIndex = %d", n, last)
	}
	if recovered != n {
		t.Fatalf("Open reported %d recovered, replay found %d", recovered, n)
	}
	// The log must accept appends after recovery.
	if _, err := l.Append([]byte("post-recovery")); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	return last
}

func TestTornTailRecordDiscarded(t *testing.T) {
	for _, cut := range []int64{1, 3, recHeaderLen - 1, recHeaderLen, recHeaderLen + 5} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			want := fillLog(t, dir, 50, 1<<20)
			paths := segPaths(t, dir)
			tail := paths[len(paths)-1]
			fi, err := os.Stat(tail)
			if err != nil {
				t.Fatal(err)
			}
			// Tear the tail: chop bytes off the end, simulating a crash
			// mid-write of record 50.
			if err := os.Truncate(tail, fi.Size()-cut); err != nil {
				t.Fatal(err)
			}
			last := verifyPrefix(t, dir, want, true)
			if last != 49 {
				t.Fatalf("after torn tail recovery LastIndex = %d, want 49", last)
			}
		})
	}
}

func TestBitFlipTruncatesFromCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(0xBD))
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		want := fillLog(t, dir, 60, 1<<20)
		paths := segPaths(t, dir)
		tail := paths[len(paths)-1]
		raw, err := os.ReadFile(tail)
		if err != nil {
			t.Fatal(err)
		}
		off := rng.Intn(len(raw))
		raw[off] ^= 1 << uint(rng.Intn(8))
		if err := os.WriteFile(tail, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		l, _, truncated, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !truncated {
			l.Close()
			t.Fatalf("trial %d: bit flip at %d not detected", trial, off)
		}
		// Every surviving record must be intact and form a gap-free prefix.
		var n uint64
		err = l.Replay(1, func(i uint64, p []byte) error {
			n++
			if n != i || !bytes.Equal(p, want[i]) {
				return fmt.Errorf("trial %d: surviving record %d damaged", trial, i)
			}
			return nil
		})
		l.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n >= 60 {
			t.Fatalf("trial %d: corruption at %d survived full recovery (%d records)", trial, off, n)
		}
	}
}

func TestMidSegmentCorruptionDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	want := fillLog(t, dir, 40, 256)
	paths := segPaths(t, dir)
	if len(paths) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(paths))
	}
	// Corrupt a record in the middle of the FIRST segment: everything from
	// that record on — including all later segments — must be discarded.
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(paths[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	last := verifyPrefix(t, dir, want, true)
	if last >= 40 {
		t.Fatalf("corruption ignored: LastIndex = %d", last)
	}
	// Later segment files must be gone.
	after := segPaths(t, dir)
	if len(after) > 1 {
		t.Fatalf("later segments survived mid-segment corruption: %v", after)
	}
}

func TestZeroedTailRecovers(t *testing.T) {
	// Some filesystems extend a file with zeroes on crash. A zero length +
	// zero CRC header would CRC-match an empty record (crc32("") == 0), so
	// the format forbids empty records and recovery must stop there.
	dir := t.TempDir()
	want := fillLog(t, dir, 10, 1<<20)
	paths := segPaths(t, dir)
	f, err := os.OpenFile(paths[len(paths)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	last := verifyPrefix(t, dir, want, true)
	if last != 10 {
		t.Fatalf("LastIndex = %d, want 10", last)
	}
}

// TestZeroLengthTailNeverSurfaced: the zero-length rule is one rule for both
// readers. A live log whose last record was zeroed on disk (header and
// payload — the zero-filled block of TestZeroedTailRecovers, under a log that
// has not been reopened) must not hand Replay's caller an empty record that
// CRC-matches; reopening truncates at the same place.
func TestZeroLengthTailNeverSurfaced(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("registration")
	for i := 0; i < 5; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	recLen := int64(recHeaderLen + len(payload))
	f, err := os.OpenFile(segPaths(t, dir)[0], os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, recLen), 4*recLen); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var n int
	err = l.Replay(1, func(i uint64, p []byte) error {
		if !bytes.Equal(p, payload) {
			t.Errorf("Replay surfaced record %d = %q", i, p)
		}
		n++
		return nil
	})
	if n != 4 || err == nil {
		t.Fatalf("Replay over a zeroed tail: %d records, err %v; want 4 and a corruption error", n, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want := map[uint64][]byte{1: payload, 2: payload, 3: payload, 4: payload}
	if last := verifyPrefix(t, dir, want, true); last != 4 {
		t.Fatalf("LastIndex after reopening = %d, want 4", last)
	}
}

func TestInsaneLengthRejected(t *testing.T) {
	dir := t.TempDir()
	want := fillLog(t, dir, 5, 1<<20)
	paths := segPaths(t, dir)
	f, err := os.OpenFile(paths[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A header claiming a 4 GiB record.
	if _, err := f.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	last := verifyPrefix(t, dir, want, true)
	if last != 5 {
		t.Fatalf("LastIndex = %d, want 5", last)
	}
}

// TestCrashPointProperty is the property test: for every possible truncation
// point of a log's on-disk bytes (as if the machine died after exactly k
// bytes reached the platter), recovery yields a gap-free prefix of intact
// records and nothing else.
func TestCrashPointProperty(t *testing.T) {
	const records = 12
	master := t.TempDir()
	want := fillLog(t, master, records, 1<<20)
	paths := segPaths(t, master)
	if len(paths) != 1 {
		t.Fatalf("want single segment, got %d", len(paths))
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if testing.Short() {
		step = 17
	}
	for k := 0; k <= len(raw); k += step {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), raw[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		l, recovered, _, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		var n uint64
		err = l.Replay(1, func(i uint64, p []byte) error {
			n++
			if n != i || !bytes.Equal(p, want[i]) {
				return fmt.Errorf("k=%d: record %d damaged or out of order", k, i)
			}
			return nil
		})
		l.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n != recovered {
			t.Fatalf("k=%d: recovered %d vs replayed %d", k, recovered, n)
		}
		if n > uint64(records) {
			t.Fatalf("k=%d: invented records (%d)", k, n)
		}
	}
}

// FuzzSegmentRecovery feeds arbitrary bytes as a segment file and asserts
// Open never errors, never panics, and every record it recovers passes its
// CRC (i.e. recovery never fabricates data).
func FuzzSegmentRecovery(f *testing.F) {
	seedDir := f.TempDir()
	l, _, _, err := Open(Options{Dir: seedDir})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		l.Append([]byte(fmt.Sprintf("seed-%d", i)))
	}
	l.Close()
	raw, err := os.ReadFile(filepath.Join(seedDir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)-3])
	f.Add([]byte{})
	f.Add(make([]byte, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recovered, _, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open on fuzzed segment: %v", err)
		}
		defer l.Close()
		var n uint64
		if err := l.Replay(1, func(uint64, []byte) error { n++; return nil }); err != nil {
			t.Fatalf("Replay after fuzzed recovery: %v", err)
		}
		if n != recovered {
			t.Fatalf("recovered %d but replayed %d", recovered, n)
		}
		if _, err := l.Append([]byte("alive")); err != nil {
			t.Fatalf("Append after fuzzed recovery: %v", err)
		}
	})
}
