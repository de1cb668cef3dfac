package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func openT(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	opts.Dir = dir
	l, _, _, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func collect(t *testing.T, l *Log, from uint64) map[uint64][]byte {
	t.Helper()
	got := map[uint64][]byte{}
	err := l.Replay(from, func(i uint64, p []byte) error {
		got[i] = append([]byte(nil), p...)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay(%d): %v", from, err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	want := map[uint64][]byte{}
	for i := 1; i <= 100; i++ {
		payload := []byte(fmt.Sprintf("record-%d", i))
		idx, err := l.Append(payload)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if idx != uint64(i) {
			t.Fatalf("Append index = %d, want %d", idx, i)
		}
		want[idx] = payload
	}
	if l.FirstIndex() != 1 || l.LastIndex() != 100 {
		t.Fatalf("range = [%d,%d], want [1,100]", l.FirstIndex(), l.LastIndex())
	}
	got := collect(t, l, 1)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, p := range want {
		if !bytes.Equal(got[i], p) {
			t.Fatalf("record %d = %q, want %q", i, got[i], p)
		}
	}
	// Partial replay.
	got = collect(t, l, 51)
	if len(got) != 50 {
		t.Fatalf("Replay(51) returned %d records, want 50", len(got))
	}
	if _, ok := got[50]; ok {
		t.Fatal("Replay(51) included index 50")
	}
}

func TestReopenPreservesRecords(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	for i := 0; i < 25; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, recovered, truncated, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if truncated {
		t.Fatal("clean reopen reported truncation")
	}
	if recovered != 25 {
		t.Fatalf("recovered = %d, want 25", recovered)
	}
	if l2.LastIndex() != 25 {
		t.Fatalf("LastIndex = %d, want 25", l2.LastIndex())
	}
	// Appends continue from the recovered index.
	idx, err := l2.Append([]byte("next"))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 26 {
		t.Fatalf("post-recovery Append index = %d, want 26", idx)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentBytes: 256})
	payload := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 20; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("Segments = %d, want >= 3 after 2000 bytes at 256/segment", l.Segments())
	}
	got := collect(t, l, 1)
	if len(got) != 20 {
		t.Fatalf("replayed %d records across segments, want 20", len(got))
	}
	// Rotation survives reopen.
	l.Close()
	l2, recovered, _, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if recovered != 20 {
		t.Fatalf("recovered = %d, want 20", recovered)
	}
}

func TestTruncateFrontPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 30; i++ {
		if _, err := l.Append(bytes.Repeat([]byte("y"), 60)); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Segments()
	if before < 4 {
		t.Fatalf("want >= 4 segments, got %d", before)
	}
	if err := l.TruncateFront(20); err != nil {
		t.Fatal(err)
	}
	if l.Segments() >= before {
		t.Fatalf("TruncateFront removed nothing (%d -> %d segments)", before, l.Segments())
	}
	if first := l.FirstIndex(); first == 1 || first > 20 {
		t.Fatalf("FirstIndex after TruncateFront(20) = %d", first)
	}
	// Records >= 20 still replayable; compacted range reports ErrNotFound.
	got := collect(t, l, 20)
	if len(got) != 11 {
		t.Fatalf("Replay(20) returned %d records, want 11", len(got))
	}
	if err := l.Replay(1, func(uint64, []byte) error { return nil }); err != ErrNotFound {
		t.Fatalf("Replay(1) after compaction = %v, want ErrNotFound", err)
	}
}

func TestSnapshotSaveLoadPrune(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LoadSnapshot(dir); err != ErrNoSnapshot {
		t.Fatalf("LoadSnapshot(empty) = %v, want ErrNoSnapshot", err)
	}
	if err := SaveSnapshot(dir, 10, []byte("state-10")); err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshot(dir, 25, []byte("state-25")); err != nil {
		t.Fatal(err)
	}
	idx, state, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 25 || string(state) != "state-25" {
		t.Fatalf("LoadSnapshot = (%d, %q)", idx, state)
	}
	// Older snapshot pruned.
	if _, err := os.Stat(filepath.Join(dir, snapName(10))); !os.IsNotExist(err) {
		t.Fatalf("snapshot 10 not pruned: %v", err)
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	if err := SaveSnapshot(dir, 5, []byte("good")); err != nil {
		t.Fatal(err)
	}
	// A newer snapshot whose body is flipped post-write.
	if err := SaveSnapshot(dir, 9, []byte("newer")); err != nil {
		t.Fatal(err)
	}
	// SaveSnapshot(9) pruned 5; recreate 5 then corrupt 9.
	if err := SaveSnapshot(dir, 5, []byte("good")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName(9))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	idx, state, err := LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 5 || string(state) != "good" {
		t.Fatalf("LoadSnapshot fell back to (%d, %q), want (5, good)", idx, state)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := map[string]SyncPolicy{"always": SyncAlways, "": SyncAlways, "Interval": SyncInterval, "never": SyncNever}
	for in, want := range cases {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("ParseSyncPolicy(bogus) succeeded")
	}
}

func TestEmptyLogOpens(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	if l.FirstIndex() != 0 || l.LastIndex() != 0 {
		t.Fatalf("empty log range = [%d,%d], want [0,0]", l.FirstIndex(), l.LastIndex())
	}
	if err := l.Replay(1, func(uint64, []byte) error { t.Fatal("fn called"); return nil }); err != nil {
		t.Fatalf("Replay on empty log: %v", err)
	}
}

// writeSyscalls reads this process's write(2) count from /proc/self/io.
func writeSyscalls(t *testing.T) int {
	t.Helper()
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no per-process I/O counters here: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Skip("/proc/self/io has no syscw line")
	return 0
}

// TestAppendIsOneWrite: a record's header and payload leave in one write.
func TestAppendIsOneWrite(t *testing.T) {
	l := openT(t, t.TempDir(), Options{Sync: SyncNever})
	const records = 200
	before := writeSyscalls(t)
	for i := 0; i < records; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// A little slack for whatever else the test binary writes meanwhile.
	if n := writeSyscalls(t) - before; n > records+records/10 {
		t.Fatalf("%d records took %d writes", records, n)
	}
}
