// Package wal implements a dependency-free segmented write-ahead log.
//
// Records are opaque byte payloads framed as
//
//	[length uint32 LE][crc32(IEEE) uint32 LE][payload]
//
// and assigned monotonically increasing indexes starting at 1. The log is a
// directory of segment files named seg-<first index, 20 digits>.wal; a new
// segment is cut when the active one exceeds Options.SegmentBytes. Recovery
// scans every segment and truncates at the first corrupt record: a torn tail
// (partial length/CRC/payload from a crash mid-write) is discarded, a
// mid-segment corruption drops everything from that point on, including any
// later segments, so the surviving prefix is always exactly the records that
// were fully written in order.
//
// Durability is controlled by Options.Sync: SyncAlways fsyncs after every
// append, SyncInterval batches fsyncs on a timer, SyncNever leaves flushing
// to the OS. Compaction is snapshot-then-prune: callers persist a snapshot
// (see snapshot.go) at some index and then TruncateFront drops whole
// segments that the snapshot covers.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy says when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs the active segment after every Append.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background timer, every syncEvery.
	SyncInterval
	// SyncNever never fsyncs explicitly; the OS decides.
	SyncNever
)

// ParseSyncPolicy maps the -fsync flag spelling to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return SyncAlways, fmt.Errorf("wal: unknown fsync policy %q (want always|interval|never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return "unknown"
}

// Options configures a Log.
type Options struct {
	// Dir is the directory holding segment files. Created if absent.
	Dir string
	// SegmentBytes is the rotation threshold for the active segment.
	// Default 1 MiB.
	SegmentBytes int64
	// Sync is the fsync policy. Default SyncAlways.
	Sync SyncPolicy
}

const (
	recHeaderLen       = 8 // uint32 length + uint32 crc
	defaultSegmentSize = 1 << 20
	maxRecordLen       = 1 << 26               // 64 MiB sanity bound; larger lengths are corruption
	syncEvery          = 50 * time.Millisecond // flush period under SyncInterval
	readBufSize        = 64 << 10              // segment reads: one read(2) per ~300 registry records
	segPrefix          = "seg-"
	segSuffix          = ".wal"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

// ErrNotFound is returned by Replay when the requested start index has been
// compacted away.
var ErrNotFound = errors.New("wal: index compacted")

type segment struct {
	path  string
	first uint64 // index of the first record in this segment
	count uint64 // number of records
}

// maxKeptRecord caps the record scratch a Log keeps between appends, so one
// large record does not pin its size for the life of the log.
const maxKeptRecord = 64 << 10

// Log is a segmented append-only record log. All methods are safe for
// concurrent use.
type Log struct {
	opts Options

	mu       sync.Mutex
	segs     []*segment // closed segments plus the active one (last)
	active   *os.File   // file handle for segs[len(segs)-1]
	size     int64      // byte size of the active segment
	first    uint64     // first retained index (0 when empty)
	last     uint64     // last appended index (0 when empty)
	dirty    bool       // appended since last fsync
	closed   bool
	notifyCh chan struct{} // closed and replaced on every append
	rec      []byte        // Append's record scratch, kept up to maxKeptRecord

	syncStop chan struct{}
	syncDone chan struct{}
}

// Open opens (or creates) the log in opts.Dir, recovering from any torn or
// corrupt tail left by a crash. The returned recovered count is the number
// of intact records found on disk; truncated reports whether any bytes were
// discarded during recovery.
func Open(opts Options) (l *Log, recovered uint64, truncated bool, err error) {
	if opts.Dir == "" {
		return nil, 0, false, errors.New("wal: Options.Dir required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentSize
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, 0, false, fmt.Errorf("wal: %w", err)
	}
	l = &Log{opts: opts, notifyCh: make(chan struct{})}
	truncated, err = l.recover()
	if err != nil {
		return nil, 0, false, err
	}
	if l.last >= l.first && l.first > 0 {
		recovered = l.last - l.first + 1
	}
	if opts.Sync == SyncInterval {
		l.syncStop = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, recovered, truncated, nil
}

func segName(first uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// recover scans segments in index order, truncating at the first corrupt
// record and deleting any segments past it.
func (l *Log) recover() (truncated bool, err error) {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	var segs []*segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		first, ok := parseSegName(e.Name())
		if !ok {
			continue
		}
		segs = append(segs, &segment{path: filepath.Join(l.opts.Dir, e.Name()), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	for i, s := range segs {
		count, goodBytes, clean, scanErr := walkSegment(s.path, math.MaxUint64, nil)
		if scanErr != nil {
			return truncated, scanErr
		}
		s.count = count
		if !clean {
			truncated = true
			if err := truncateFile(s.path, goodBytes); err != nil {
				return truncated, err
			}
		}
		if !clean || count == 0 && i < len(segs)-1 {
			// Corruption (or an empty rotated segment, which can only come
			// from a crash mid-rotation): everything after this point is
			// unreachable — later indexes would be ambiguous. Drop it.
			for _, later := range segs[i+1:] {
				truncated = true
				_ = os.Remove(later.path)
			}
			segs = segs[:i+1]
			break
		}
	}
	// Drop a fully-empty tail segment list down to nothing.
	for len(segs) > 0 {
		tail := segs[len(segs)-1]
		if tail.count > 0 || len(segs) == 1 {
			break
		}
		_ = os.Remove(tail.path)
		segs = segs[:len(segs)-1]
	}

	if len(segs) == 0 {
		segs = []*segment{{path: filepath.Join(l.opts.Dir, segName(1)), first: 1}}
	}
	tail := segs[len(segs)-1]
	f, err := os.OpenFile(tail.path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return truncated, fmt.Errorf("wal: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return truncated, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return truncated, fmt.Errorf("wal: %w", err)
	}
	l.segs = segs
	l.active = f
	l.size = fi.Size()
	l.first = segs[0].first
	l.last = tail.first + tail.count - 1 // first-1 when the log is empty
	return truncated, nil
}

// errCorrupt is what readRecord says of anything that is not one intact
// record or a clean end of file.
var errCorrupt = errors.New("wal: torn or corrupt record")

// readRecord reads the next [length][crc][payload] record into buf (grown
// when too small) and is the only place the format's validity rule is
// written: a whole header, a length in [1, maxRecordLen] — a zero length would
// CRC-match zero-filled tail blocks (crc32("") == 0), so empty records are
// forbidden — a whole payload, and a matching CRC. It returns io.EOF at a
// clean end of file and errCorrupt for everything else.
func readRecord(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(recHeaderLen) // in place: a header array would escape through io.Reader
	if err != nil {
		if len(hdr) == 0 && err == io.EOF {
			return nil, io.EOF
		}
		return nil, errCorrupt
	}
	length, crc := binary.LittleEndian.Uint32(hdr[0:4]), binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || length > maxRecordLen {
		return nil, errCorrupt
	}
	_, _ = r.Discard(recHeaderLen) // cannot fail: Peek buffered these bytes
	if int(length) > cap(buf) {
		buf = make([]byte, length)
	}
	buf = buf[:length]
	if _, err := io.ReadFull(r, buf); err != nil || crc32.ChecksumIEEE(buf) != crc {
		return nil, errCorrupt
	}
	return buf, nil
}

// readerPool recycles segment read buffers: a replica stream replays from the
// tail on every append, and a fresh 64 KiB buffer per walk would be most of
// what that costs in allocation.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readBufSize) }}

// walkSegment reads up to limit records of one file, in order, handing each
// (by its position in the file) to fn when there is one. It returns how many
// intact records it read, the byte offset just past the last of them, and
// whether it stopped at limit or a clean end of file rather than at garbage.
func walkSegment(path string, limit uint64, fn func(n uint64, payload []byte) error) (count uint64, goodBytes int64, clean bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	r := readerPool.Get().(*bufio.Reader)
	r.Reset(f)
	defer func() {
		r.Reset(nil)
		readerPool.Put(r)
	}()
	var buf []byte
	for count < limit {
		if buf, err = readRecord(r, buf[:0]); err != nil {
			return count, goodBytes, err == io.EOF, nil
		}
		if fn != nil {
			if err := fn(count, buf); err != nil {
				return count, goodBytes, false, err
			}
		}
		count++
		goodBytes += recHeaderLen + int64(len(buf))
	}
	return count, goodBytes, true, nil
}

func truncateFile(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return f.Sync()
}

// Append writes one record and returns its index. Depending on the sync
// policy the record may not be durable until the next Sync.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if len(payload) == 0 {
		return 0, errors.New("wal: empty record")
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	// Header and payload leave in one write: one syscall per record.
	rec := binary.LittleEndian.AppendUint32(l.rec[:0], uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	rec = append(rec, payload...)
	if cap(rec) <= maxKeptRecord {
		l.rec = rec
	}
	if _, err := l.active.Write(rec); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	l.size += recHeaderLen + int64(len(payload))
	tail := l.segs[len(l.segs)-1]
	tail.count++
	idx := tail.first + tail.count - 1
	l.last = idx
	if l.first == 0 || l.last < l.first {
		l.first = idx
	}
	l.dirty = true
	if l.opts.Sync == SyncAlways {
		if err := l.active.Sync(); err != nil {
			return 0, fmt.Errorf("wal: %w", err)
		}
		l.dirty = false
	}
	// Wake tail-followers.
	close(l.notifyCh)
	l.notifyCh = make(chan struct{})
	return idx, nil
}

// rotateLocked cuts a new active segment. Called with l.mu held.
func (l *Log) rotateLocked() error {
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	first := l.last + 1
	path := filepath.Join(l.opts.Dir, segName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(l.opts.Dir); err != nil {
		f.Close()
		return err
	}
	l.segs = append(l.segs, &segment{path: path, first: first})
	l.active = f
	l.size = 0
	l.dirty = false
	return nil
}

// Sync flushes appended records to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if !l.dirty {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.dirty = false
	return nil
}

func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(syncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = l.Sync()
		case <-l.syncStop:
			return
		}
	}
}

// FirstIndex returns the first retained index (0 when the log is empty).
func (l *Log) FirstIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last < l.first {
		return 0
	}
	return l.first
}

// LastIndex returns the last appended index (0 when the log is empty).
func (l *Log) LastIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last < l.first {
		return 0
	}
	return l.last
}

// Segments returns how many segment files the log currently spans.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Notify returns a channel closed on the next Append, letting tail-followers
// block until new records exist. Grab a fresh channel after each wake-up.
func (l *Log) Notify() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notifyCh
}

// Replay calls fn for every record with index >= from, in order. It returns
// ErrNotFound when from has been compacted away (callers should fall back to
// a snapshot). Replay of an empty range is a no-op. fn returning an error
// stops the walk; the payload is valid only until fn returns. Append writes
// straight to the file, so every record it has returned an index for is
// readable here whatever the sync policy: Replay does not fsync.
func (l *Log) Replay(from uint64, fn func(index uint64, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if from == 0 {
		from = 1
	}
	if l.last < l.first || from > l.last {
		l.mu.Unlock()
		return nil
	}
	if from < l.first {
		l.mu.Unlock()
		return ErrNotFound
	}
	// By value: Append bumps the tail segment's count under the lock while
	// the walk below runs outside it.
	segs := make([]segment, len(l.segs))
	for i, s := range l.segs {
		segs[i] = *s
	}
	l.mu.Unlock()

	for _, s := range segs {
		if s.count == 0 || s.first+s.count-1 < from {
			continue
		}
		// All s.count records were fully written before the lock was let go,
		// so one that does not read back intact is corruption, never a tail
		// still in flight.
		n, _, _, err := walkSegment(s.path, s.count, func(n uint64, payload []byte) error {
			if idx := s.first + n; idx >= from {
				return fn(idx, payload)
			}
			return nil
		})
		if err == nil && n < s.count {
			err = fmt.Errorf("wal: record %d in %s: %w", s.first+n, s.path, errCorrupt)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// TruncateFront drops whole segments whose records all precede keepFrom.
// The active segment is never removed. Used after a snapshot at keepFrom-1
// has been persisted.
func (l *Log) TruncateFront(keepFrom uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	removed := false
	for len(l.segs) > 1 {
		s := l.segs[0]
		end := s.first + s.count - 1
		if end >= keepFrom {
			break
		}
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: %w", err)
		}
		l.segs = l.segs[1:]
		removed = true
	}
	if removed {
		l.first = l.segs[0].first
		if err := syncDir(l.opts.Dir); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	if l.dirty && l.opts.Sync != SyncNever {
		_ = l.active.Sync()
	}
	err := l.active.Close()
	stop := l.syncStop
	done := l.syncDone
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return err
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
