package plane

import (
	"fmt"
	"time"

	"narada/internal/obs"
	"narada/internal/obs/profile"
)

// Scrape is the one document a node's telemetry plane serves per scrape, at
// GET /telemetry?since=<the Next of the previous one>: who the node is, its
// clock offset, its current metric and flow snapshots, the journal events
// and spans newer than the cursor the collector sent, and the profiles it
// asks the collector to take of it. Reads leave the node as it was, so a
// response that is lost is sent again by the next scrape.
type Scrape struct {
	Node     string             `json:"node"`
	Boot     int64              `json:"boot"`     // Unix ns the plane started: a new value marks a restart
	At       time.Time          `json:"at"`       // node-local build time
	Offset   time.Duration      `json:"offsetNs"` // estimated local clock − UTC
	Next     string             `json:"next"`     // the since= of the following scrape
	Families []obs.ExportFamily `json:"families,omitempty"`
	Flows    []obs.FlowSnapshot `json:"flows,omitempty"`
	Events   []obs.Event        `json:"events,omitempty"`
	Spans    []obs.SpanRecord   `json:"spans,omitempty"`
	// ProfileEvery is the node's -profile-every: the collector takes a
	// profile round of it from its pprof endpoints at this period (0: none),
	// with the Contention kinds its -mutex-profile-fraction and
	// -block-profile-rate turned on.
	ProfileEvery time.Duration  `json:"profileEveryNs,omitempty"`
	Contention   []profile.Kind `json:"contention,omitempty"`
}

// cursor is where a collector's last scrape ended: the boot it read and the
// last journal event and span it was sent. It travels as the opaque Next,
// "boot.events.spans".
type cursor struct {
	boot          int64
	events, spans uint64
}

// Scrape builds the document for a collector whose last one carried
// Next == since; an empty since, or one from another boot, starts from the
// beginning. It is the only builder: /telemetry serves it, and the collector
// calls it in process for the planes it owns.
func (p *Plane) Scrape(since string) Scrape {
	var c cursor
	if _, err := fmt.Sscanf(since, "%d.%d.%d", &c.boot, &c.events, &c.spans); err != nil || c.boot != p.boot {
		c = cursor{boot: p.boot}
	}
	s := Scrape{
		Node:   p.cfg.Node,
		Boot:   p.boot,
		At:     time.Now(),
		Events: p.handle.Journal.Since(c.events),
		Spans:  p.handle.Tracer.SpansSince(c.spans),
	}
	if p.cfg.Offset != nil {
		s.Offset = p.cfg.Offset()
	}
	if p.own != nil {
		s.Families = p.own.ExportSnapshot()
	}
	if f := p.flows.Load(); f != nil {
		s.Flows = (*f)()
	}
	if s.ProfileEvery = p.cfg.ProfileEvery; s.ProfileEvery > 0 {
		if p.cfg.MutexFraction > 0 {
			s.Contention = append(s.Contention, profile.KindMutex)
		}
		if p.cfg.BlockRate > 0 {
			s.Contention = append(s.Contention, profile.KindBlock)
		}
	}
	if n := len(s.Events); n > 0 {
		c.events = s.Events[n-1].Seq
	}
	if n := len(s.Spans); n > 0 {
		c.spans = s.Spans[n-1].Seq
	}
	s.Next = fmt.Sprintf("%d.%d.%d", c.boot, c.events, c.spans)
	return s
}
