package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Snapshots are full-state captures used for snapshot-then-prune compaction.
// A snapshot at index i
// covers every record <= i; after persisting one, TruncateFront(i+1) may
// drop the covered segments.
//
// File format: snap-<index, 20 digits>.snap holding
//
//	[magic 0xS5][version 1][crc32 uint32 LE][len uint32 LE][state]
//
// written to a unique temp file in the same directory and atomically
// renamed, with file and directory fsyncs, so a crash mid-write never
// clobbers the previous snapshot.

const (
	snapMagic   = 0x5A
	snapVersion = 1
	snapPrefix  = "snap-"
	snapSuffix  = ".snap"
)

// ErrNoSnapshot is returned by LoadSnapshot when the directory holds no
// intact snapshot.
var ErrNoSnapshot = errors.New("wal: no snapshot")

func snapName(index uint64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, index, snapSuffix)
}

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(snapPrefix):len(name)-len(snapSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// SaveSnapshot atomically persists state as the snapshot covering all
// records <= index, then prunes older snapshot files.
func SaveSnapshot(dir string, index uint64, state []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	f, err := os.CreateTemp(dir, snapPrefix+"*.tmp")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	tmp := f.Name()
	cleanup := func() {
		f.Close()
		os.Remove(tmp)
	}
	var hdr [10]byte
	hdr[0] = snapMagic
	hdr[1] = snapVersion
	binary.LittleEndian.PutUint32(hdr[2:6], crc32.ChecksumIEEE(state))
	binary.LittleEndian.PutUint32(hdr[6:10], uint32(len(state)))
	if _, err := f.Write(hdr[:]); err != nil {
		cleanup()
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(state); err != nil {
		cleanup()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	final := filepath.Join(dir, snapName(index))
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	pruneSnapshots(dir, index)
	return nil
}

// LoadSnapshot returns the newest intact snapshot in dir. Corrupt newer
// snapshots are skipped in favour of older intact ones.
func LoadSnapshot(dir string) (index uint64, state []byte, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil, ErrNoSnapshot
		}
		return 0, nil, fmt.Errorf("wal: %w", err)
	}
	var idxs []uint64
	for _, e := range entries {
		if n, ok := parseSnapName(e.Name()); ok {
			idxs = append(idxs, n)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] > idxs[j] })
	for _, n := range idxs {
		state, err := readSnapshot(filepath.Join(dir, snapName(n)))
		if err == nil {
			return n, state, nil
		}
	}
	return 0, nil, ErrNoSnapshot
}

func readSnapshot(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < 10 || raw[0] != snapMagic || raw[1] != snapVersion {
		return nil, errors.New("wal: malformed snapshot")
	}
	crc := binary.LittleEndian.Uint32(raw[2:6])
	length := binary.LittleEndian.Uint32(raw[6:10])
	if int(length) != len(raw)-10 {
		return nil, errors.New("wal: malformed snapshot")
	}
	state := raw[10:]
	if crc32.ChecksumIEEE(state) != crc {
		return nil, errors.New("wal: snapshot crc mismatch")
	}
	return state, nil
}

// pruneSnapshots removes snapshot files older than keep, plus any stale
// temp files from crashed writers.
func pruneSnapshots(dir string, keep uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, ".tmp") {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if n, ok := parseSnapName(name); ok && n < keep {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}
