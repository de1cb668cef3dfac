// Package fragment implements the NaradaBrokering payload services the paper
// lists among the substrate's capabilities: "(de)compression of large
// payloads, fragmentation and coalescing of large datasets".
//
// A large payload is optionally gzip-compressed, split into fixed-size
// fragments each carrying (set id, index, total, checksum), published as
// ordinary events, and coalesced at the consumer — tolerating interleaved
// sets from multiple producers, duplicated fragments (flooding can duplicate
// at the event layer before dedup) and out-of-order arrival.
package fragment

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"narada/internal/uuid"
	"narada/internal/wire"
)

// DefaultFragmentSize is the default maximum payload bytes per fragment.
const DefaultFragmentSize = 32 * 1024

// Config parameterises fragmentation.
type Config struct {
	// FragmentSize bounds the payload bytes carried per fragment
	// (<= 0 means DefaultFragmentSize).
	FragmentSize int
	// Compress gzips the payload before splitting when it shrinks it.
	Compress bool
	// MinCompressSize skips compression for small payloads.
	MinCompressSize int
}

func (c *Config) fillDefaults() {
	if c.FragmentSize <= 0 {
		c.FragmentSize = DefaultFragmentSize
	}
	if c.MinCompressSize <= 0 {
		c.MinCompressSize = 512
	}
}

// Fragment is one piece of a split payload.
type Fragment struct {
	SetID      uuid.UUID // identifies the original payload
	Index      uint32    // 0-based fragment index
	Total      uint32    // number of fragments in the set
	Compressed bool      // whole-set flag: payload was gzipped before splitting
	Checksum   uint32    // CRC-32 (IEEE) of this fragment's data
	Data       []byte
}

// Errors returned by decoding and coalescing.
var (
	ErrCorrupt      = errors.New("fragment: checksum mismatch")
	ErrInconsistent = errors.New("fragment: inconsistent set metadata")
)

// Encode serialises a fragment with the wire codec.
func Encode(f *Fragment) []byte {
	w := wire.NewWriter(32 + len(f.Data))
	w.Bytes16([16]byte(f.SetID))
	w.Uvarint(uint64(f.Index))
	w.Uvarint(uint64(f.Total))
	w.Bool(f.Compressed)
	w.Uvarint(uint64(f.Checksum))
	w.BytesField(f.Data)
	return w.Bytes()
}

// Decode parses a fragment and verifies its checksum.
func Decode(b []byte) (*Fragment, error) {
	r := wire.NewReader(b)
	f := &Fragment{
		SetID:      uuid.UUID(r.Bytes16()),
		Index:      uint32(r.Uvarint()),
		Total:      uint32(r.Uvarint()),
		Compressed: r.Bool(),
		Checksum:   uint32(r.Uvarint()),
		Data:       r.BytesField(),
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("fragment: %w", err)
	}
	if crc32.ChecksumIEEE(f.Data) != f.Checksum {
		return nil, ErrCorrupt
	}
	if f.Total == 0 || f.Index >= f.Total {
		return nil, fmt.Errorf("%w: index %d of %d", ErrInconsistent, f.Index, f.Total)
	}
	return f, nil
}

// Split fragments (and optionally compresses) a payload. Even an empty
// payload yields one (empty) fragment so the set is self-delimiting.
func Split(payload []byte, cfg Config) ([]*Fragment, error) {
	cfg.fillDefaults()
	compressed := false
	data := payload
	if cfg.Compress && len(payload) >= cfg.MinCompressSize {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(payload); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
		if buf.Len() < len(payload) {
			data = buf.Bytes()
			compressed = true
		}
	}

	total := (len(data) + cfg.FragmentSize - 1) / cfg.FragmentSize
	if total == 0 {
		total = 1
	}
	id := uuid.New()
	out := make([]*Fragment, 0, total)
	for i := 0; i < total; i++ {
		lo := i * cfg.FragmentSize
		hi := lo + cfg.FragmentSize
		if hi > len(data) {
			hi = len(data)
		}
		chunk := append([]byte(nil), data[lo:hi]...)
		out = append(out, &Fragment{
			SetID:      id,
			Index:      uint32(i),
			Total:      uint32(total),
			Compressed: compressed,
			Checksum:   crc32.ChecksumIEEE(chunk),
			Data:       chunk,
		})
	}
	return out, nil
}

// Coalescer reassembles fragment sets. It is safe for concurrent use and
// evicts stale incomplete sets after an expiry window.
type Coalescer struct {
	mu     sync.Mutex
	sets   map[uuid.UUID]*pending
	expiry time.Duration
	now    func() time.Time
}

type pending struct {
	total      uint32
	compressed bool
	parts      map[uint32][]byte
	firstSeen  time.Time
}

// NewCoalescer creates a Coalescer evicting incomplete sets older than
// expiry (<= 0 means 1 minute). now may override the time source for tests.
func NewCoalescer(expiry time.Duration, now func() time.Time) *Coalescer {
	if expiry <= 0 {
		expiry = time.Minute
	}
	if now == nil {
		now = time.Now
	}
	return &Coalescer{sets: make(map[uuid.UUID]*pending), expiry: expiry, now: now}
}

// Add feeds one fragment. When the fragment completes its set, the
// reassembled (and decompressed) payload is returned with done == true.
// Duplicate fragments are ignored.
func (c *Coalescer) Add(f *Fragment) (payload []byte, done bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictLocked()

	p, ok := c.sets[f.SetID]
	if !ok {
		p = &pending{
			total:      f.Total,
			compressed: f.Compressed,
			parts:      make(map[uint32][]byte, f.Total),
			firstSeen:  c.now(),
		}
		c.sets[f.SetID] = p
	}
	if p.total != f.Total || p.compressed != f.Compressed {
		return nil, false, fmt.Errorf("%w: set %s", ErrInconsistent, f.SetID)
	}
	if _, dup := p.parts[f.Index]; dup {
		return nil, false, nil
	}
	p.parts[f.Index] = f.Data
	if uint32(len(p.parts)) < p.total {
		return nil, false, nil
	}

	// Complete: reassemble in index order.
	delete(c.sets, f.SetID)
	var buf bytes.Buffer
	for i := uint32(0); i < p.total; i++ {
		buf.Write(p.parts[i])
	}
	data := buf.Bytes()
	if p.compressed {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, false, fmt.Errorf("fragment: decompressing: %w", err)
		}
		out, err := io.ReadAll(zr)
		if err != nil {
			return nil, false, fmt.Errorf("fragment: decompressing: %w", err)
		}
		if err := zr.Close(); err != nil {
			return nil, false, err
		}
		return out, true, nil
	}
	return data, true, nil
}

// Pending returns the number of incomplete sets held.
func (c *Coalescer) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sets)
}

func (c *Coalescer) evictLocked() {
	cutoff := c.now().Add(-c.expiry)
	for id, p := range c.sets {
		if p.firstSeen.Before(cutoff) {
			delete(c.sets, id)
		}
	}
}
