package profile

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Capture is one stored profile. Listings carry metadata only (Data nil);
// Get returns the bytes. Node and URL (the collector-relative download path)
// are set for a capture of a node, and empty for one that names none.
type Capture struct {
	ID      string    `json:"id"`
	Node    string    `json:"node,omitempty"`
	Kind    Kind      `json:"kind"`
	Trigger string    `json:"trigger"` // "periodic", "flight:<rule>", "recovered"
	At      time.Time `json:"at"`
	Size    int       `json:"size"`
	URL     string    `json:"url,omitempty"`
	Data    []byte    `json:"-"`
}

// Filter narrows a listing; zero fields match everything.
type Filter struct {
	Node    string
	Kind    Kind
	Trigger string    // prefix match, so "flight" selects every flight capture
	Since   time.Time // strictly after
}

// Store is the one bounded profile store: the collector keeps the periodic
// and flight-recorded captures of the whole fabric in it. It is a FIFO
// bounded by count and by total bytes: adding past either bound evicts
// oldest-first.
//
// With a spool directory each capture's bytes live in <dir>/<id>.pprof, not
// in memory, and eviction removes the file, so the bounds also bound the
// directory. Opening a directory a previous run left files in re-indexes
// them (node and kind from the file name, At from the modification time,
// Trigger "recovered"), continues the id sequence after the highest one
// found and evicts down to the bounds — the files stay listed and
// downloadable, and the directory never holds more than the store accounts
// for. Files that do not carry the store's naming are left alone.
type Store struct {
	mu       sync.Mutex
	dir      string // "" = in memory
	maxCount int
	maxBytes int64
	bytes    int64
	seq      uint64
	order    []*Capture // oldest first; Data nil when spooled
	byID     map[string]*Capture
}

// NewStore opens a store; dir "" keeps captures in memory.
func NewStore(dir string, maxCount int, maxBytes int64) (*Store, error) {
	s := &Store{dir: dir, maxCount: maxCount, maxBytes: maxBytes, byID: make(map[string]*Capture)}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("profile: store dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("profile: store dir: %w", err)
	}
	var found []*Capture
	seqOf := make(map[*Capture]uint64, len(entries))
	for _, e := range entries {
		id, isProfile := strings.CutSuffix(e.Name(), ".pprof")
		seq, node, kind, ok := parseID(id)
		info, err := e.Info()
		if !isProfile || !ok || err != nil || !info.Mode().IsRegular() {
			continue
		}
		cp := &Capture{ID: id, Node: node, Kind: kind, Trigger: "recovered", At: info.ModTime(), Size: int(info.Size())}
		found, seqOf[cp] = append(found, cp), seq
		s.seq = max(s.seq, seq)
	}
	sort.Slice(found, func(i, j int) bool { return seqOf[found[i]] < seqOf[found[j]] })
	for _, cp := range found {
		s.keepLocked(cp)
	}
	s.evictLocked()
	return s, nil
}

// parseID splits a capture id into the parts Add joined; ok is false for a
// name the store would not have produced.
func parseID(id string) (seq uint64, node string, kind Kind, ok bool) {
	seqStr, rest, _ := strings.Cut(id, "-")
	seq, err := strconv.ParseUint(seqStr, 10, 64)
	if err != nil || rest == "" {
		return 0, "", "", false
	}
	if i := strings.LastIndexByte(rest, '-'); i >= 0 {
		return seq, rest[:i], Kind(rest[i+1:]), true
	}
	return seq, "", Kind(rest), true
}

// idSafe keeps node names URL- and filename-safe inside capture ids.
func idSafe(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, s)
}

// Add stores one capture — the caller sets Node, Kind, Trigger, At and Data;
// the store assigns ID (<seq>-<node>-<kind>, <seq>-<kind> without a node),
// Size and URL — evicting oldest entries past the bounds. A capture larger
// than the whole byte budget is rejected: a clipped pprof profile is garbage.
// The returned capture is the listing entry (Data nil).
func (s *Store) Add(cp Capture) (Capture, error) {
	if int64(len(cp.Data)) > s.maxBytes {
		return Capture{}, fmt.Errorf("profile: capture of %d bytes exceeds the %d-byte store budget", len(cp.Data), s.maxBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	cp.ID = fmt.Sprintf("%06d-%s", s.seq, idSafe(string(cp.Kind)))
	if cp.Node != "" {
		cp.ID = fmt.Sprintf("%06d-%s-%s", s.seq, idSafe(cp.Node), idSafe(string(cp.Kind)))
	}
	cp.Size = len(cp.Data)
	if s.dir != "" {
		if err := os.WriteFile(s.path(cp.ID), cp.Data, 0o644); err != nil {
			return Capture{}, fmt.Errorf("profile: spool capture: %w", err)
		}
		cp.Data = nil
	}
	s.keepLocked(&cp)
	s.evictLocked()
	entry := cp // the stored cp keeps its bytes
	entry.Data = nil
	return entry, nil
}

// keepLocked indexes a capture whose bytes are already where they belong.
// Requires s.mu (or sole ownership of s).
func (s *Store) keepLocked(cp *Capture) {
	if cp.Node != "" {
		cp.URL = "/profiles/" + cp.ID
	}
	s.order = append(s.order, cp)
	s.byID[cp.ID] = cp
	s.bytes += int64(cp.Size)
}

func (s *Store) path(id string) string { return filepath.Join(s.dir, id+".pprof") }

// evictLocked drops oldest captures (and their spooled files) until both
// bounds hold. Requires s.mu.
func (s *Store) evictLocked() {
	for len(s.order) > s.maxCount || s.bytes > s.maxBytes {
		old := s.order[0]
		s.order = s.order[1:]
		delete(s.byID, old.ID)
		s.bytes -= int64(old.Size)
		if s.dir != "" {
			_ = os.Remove(s.path(old.ID)) // a file already gone is what eviction wants
		}
	}
}

// List returns the metadata of matching captures, newest first.
func (s *Store) List(f Filter) []Capture {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Capture, 0, len(s.order))
	for _, cp := range s.order {
		if (f.Node != "" && cp.Node != f.Node) || (f.Kind != "" && cp.Kind != f.Kind) ||
			!strings.HasPrefix(cp.Trigger, f.Trigger) ||
			(!f.Since.IsZero() && !cp.At.After(f.Since)) {
			continue
		}
		c := *cp
		c.Data = nil
		out = append(out, c)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.After(out[j].At) })
	return out
}

// Get returns one capture with its bytes (read back from the spool when
// there is one).
func (s *Store) Get(id string) (Capture, bool) {
	s.mu.Lock()
	cp, ok := s.byID[id]
	var c Capture
	if ok {
		c = *cp
	}
	s.mu.Unlock()
	if ok && s.dir != "" {
		data, err := os.ReadFile(s.path(id))
		c.Data, ok = data, err == nil
	}
	return c, ok
}

// Count returns the number of retained captures.
func (s *Store) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// Bytes returns the total retained payload size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}
