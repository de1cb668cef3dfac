package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed call into a layer. Spans are recorded from the
// benchmark's own files, around the call, kept in memory, and written out
// when the run ends. Times are nanoseconds since the benchmark started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = no parent: the operation's root span
	Op     string `json:"op"`     // operation id: sequence number or request UUID
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type recorder struct {
	spans []span
}

// add records a span and returns its id for use as a parent.
func (t *recorder) add(parent int, op, name string, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// selfTimes returns, per span name, the summed self time: a span's duration
// minus the part of it its child spans cover.
func (t *recorder) selfTimes() map[string]int64 {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range t.spans {
		out[s.Name] += (s.End - s.Start) - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped to
// the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	at := parent.Start
	for _, k := range kids {
		start, end := k.Start, k.End
		if start < at {
			start = at
		}
		if end > parent.End {
			end = parent.End
		}
		if end > start {
			total += end - start
			at = end
		}
	}
	return total
}

// rootCoverage is the share of the root spans' total duration that spans
// below them account for: how much of an operation the layers explain.
func (t *recorder) rootCoverage() float64 {
	self := t.selfTimes()
	var rootSelf, all int64
	names := map[string]bool{}
	for _, s := range t.spans {
		if s.Parent == 0 {
			names[s.Name] = true
			all += s.End - s.Start
		}
	}
	for n := range names {
		rootSelf += self[n]
	}
	if all == 0 {
		return 0
	}
	return 1 - float64(rootSelf)/float64(all)
}

// write stores the spans with their per-layer self times as JSON.
func (t *recorder) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		SelfNs   map[string]int64 `json:"self_ns_by_layer"`
		Spans    []span           `json:"spans"`
	}{workload, seed, t.selfTimes(), t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
