// Package profile is a dependency-free continuous profiler: a Capturer takes
// periodic low-overhead CPU/heap/goroutine (and opt-in mutex/block) profiles
// of its own process, keeps them in a bounded in-memory Store, and serves
// them over the node's telemetry mux so the fabric collector can pull them
// into its own Store.
// Heap, goroutine, mutex and block captures use the legacy debug=1 text
// format — parseable by the dep-free diff in this package and still accepted
// by `go tool pprof`; CPU captures are the binary proto format.
package profile

import (
	"bytes"
	"fmt"
	"log/slog"
	"runtime/pprof"
	"sync"
	"time"

	"narada/internal/obs"
)

// Kind names one profile type.
type Kind string

const (
	KindCPU       Kind = "cpu"
	KindHeap      Kind = "heap"
	KindGoroutine Kind = "goroutine"
	KindMutex     Kind = "mutex"
	KindBlock     Kind = "block"
)

// Config parameterises a Capturer. The zero value is usable: manual captures
// only, default bounds.
type Config struct {
	// Interval between periodic capture rounds; 0 disables the loop
	// (CaptureNow still works — the collector's flight recorder and the
	// /profiles handler are manual paths).
	Interval time.Duration
	// Mutex / Block include contention profiles in periodic rounds. They
	// only carry data when runtime.SetMutexProfileFraction /
	// runtime.SetBlockProfileRate are enabled (the cmd flags).
	Mutex, Block bool
	Logger       *slog.Logger

	// Bounds no binary sets; unexported so only this package's tests can
	// shrink them. cpuDuration (default 1s) is clamped to a quarter of
	// Interval so the profiler's own duty cycle stays bounded; a capture
	// over maxCaptureBytes (default 4 MiB) is dropped whole — a truncated
	// pprof profile is garbage; maxCaptures (default 64) bounds the store.
	cpuDuration     time.Duration
	maxCaptureBytes int
	maxCaptures     int
}

// Capturer takes and retains profiles of its own process.
type Capturer struct {
	cfg   Config
	store *Store

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// New returns a Capturer; call Start to run the periodic loop.
func New(cfg Config) *Capturer {
	if cfg.cpuDuration <= 0 {
		cfg.cpuDuration = time.Second
	}
	if cfg.Interval > 0 && cfg.cpuDuration > cfg.Interval/4 {
		cfg.cpuDuration = cfg.Interval / 4
	}
	if cfg.maxCaptureBytes <= 0 {
		cfg.maxCaptureBytes = 4 << 20
	}
	if cfg.maxCaptures <= 0 {
		cfg.maxCaptures = 64
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Nop()
	}
	// The count bound is the one that binds: every capture is at most
	// maxCaptureBytes, so the byte budget below is never reached first.
	store, _ := NewStore("", cfg.maxCaptures, int64(cfg.maxCaptures)*int64(cfg.maxCaptureBytes)) // in memory: no error
	return &Capturer{cfg: cfg, store: store, stop: make(chan struct{}), done: make(chan struct{})}
}

// Start launches the periodic capture loop (no-op when Interval is 0).
func (c *Capturer) Start() {
	if c.cfg.Interval <= 0 {
		close(c.done)
		return
	}
	go c.loop()
}

func (c *Capturer) loop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			kinds := []Kind{KindCPU, KindHeap, KindGoroutine}
			if c.cfg.Mutex {
				kinds = append(kinds, KindMutex)
			}
			if c.cfg.Block {
				kinds = append(kinds, KindBlock)
			}
			if _, err := c.CaptureNow("periodic", kinds...); err != nil {
				c.cfg.Logger.Warn("profile: periodic capture", "err", err)
			}
		case <-c.stop:
			return
		}
	}
}

// Close stops the periodic loop. Retained captures stay readable.
func (c *Capturer) Close() error {
	c.once.Do(func() { close(c.stop) })
	<-c.done
	return nil
}

// List returns the metadata of matching retained captures, newest first.
func (c *Capturer) List(f Filter) []Capture { return c.store.List(f) }

// CaptureNow takes the requested profile kinds immediately (all errors are
// joined; kinds that succeed are stored regardless). A CPU capture blocks
// for the CPU sampling window; an error from a concurrently running CPU profile (e.g. a
// /debug/pprof/profile scrape in flight) is reported, not fatal.
func (c *Capturer) CaptureNow(trigger string, kinds ...Kind) ([]Capture, error) {
	var out []Capture
	var firstErr error
	for _, k := range kinds {
		data, err := c.capture(k)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", k, err)
			}
			continue
		}
		if len(data) > c.cfg.maxCaptureBytes {
			c.cfg.Logger.Warn("profile: capture over size bound, dropped",
				"kind", string(k), "size", len(data), "max", c.cfg.maxCaptureBytes)
			continue
		}
		cp, err := c.store.Add(Capture{Kind: k, Trigger: trigger, At: time.Now(), Data: data})
		if err != nil { // unreachable while data fits maxCaptureBytes
			c.cfg.Logger.Warn("profile: store", "kind", string(k), "err", err)
			continue
		}
		cp.Data = data
		out = append(out, cp)
	}
	return out, firstErr
}

func (c *Capturer) capture(k Kind) ([]byte, error) {
	switch k {
	case KindCPU:
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, err
		}
		select {
		case <-time.After(c.cfg.cpuDuration):
		case <-c.stop:
		}
		pprof.StopCPUProfile()
		return buf.Bytes(), nil
	case KindHeap, KindGoroutine, KindMutex, KindBlock:
		p := pprof.Lookup(string(k))
		if p == nil {
			return nil, fmt.Errorf("unknown profile %q", k)
		}
		var buf bytes.Buffer
		// debug=1: legacy text format, diffable without the proto decoder.
		if err := p.WriteTo(&buf, 1); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	default:
		return nil, fmt.Errorf("unknown profile kind %q", k)
	}
}
