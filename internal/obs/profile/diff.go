package profile

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Summary is the site-aggregated view of a parsed text-mode (debug=1)
// goroutine or heap profile: just enough structure to rank hot sites and
// diff two captures without the pprof proto decoder.
type Summary struct {
	Kind  string // "goroutine" or "heap"
	Total int64  // goroutines, or in-use heap bytes
	Sites []Site // sorted hottest first
}

// Site is one aggregation bucket: all stacks sharing the same anchor frame
// (the first non-runtime frame, where the code under suspicion lives). In a
// Diff it holds the site's change between two summaries (b − a).
type Site struct {
	Name  string `json:"name"`
	Count int64  `json:"count"` // goroutines, or in-use objects
	Bytes int64  `json:"bytes"` // heap only
}

// ParseText parses a legacy text-format (debug=1) goroutine or heap profile.
// The format is detected from the header line; other profile kinds (cpu is
// binary proto, mutex/block have their own text shape) return an error.
func ParseText(data []byte) (*Summary, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("profile: empty input")
	}
	header := sc.Text()
	switch {
	case strings.HasPrefix(header, "goroutine profile: total "):
		total, err := strconv.ParseInt(strings.TrimPrefix(header, "goroutine profile: total "), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("profile: goroutine header: %w", err)
		}
		return parseRecords(sc, "goroutine", total, parseGoroutineRecord)
	case strings.HasPrefix(header, "heap profile: "):
		s, err := parseRecords(sc, "heap", 0, parseHeapRecord)
		if err != nil {
			return nil, err
		}
		for _, site := range s.Sites {
			s.Total += site.Bytes
		}
		return s, nil
	}
	return nil, fmt.Errorf("profile: unsupported text profile header %q", firstLine(header))
}

func firstLine(s string) string {
	if len(s) > 80 {
		return s[:80] + "…"
	}
	return s
}

// parseGoroutineRecord parses "N @ 0x... 0x..." → count N.
func parseGoroutineRecord(line string) (count, bytes int64, ok bool) {
	head, _, found := strings.Cut(line, " @ ")
	if !found {
		return 0, 0, false
	}
	n, err := strconv.ParseInt(strings.TrimSpace(head), 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return n, 0, true
}

// parseHeapRecord parses "objs: bytes [allocObjs: allocBytes] @ 0x..." →
// in-use objects and bytes.
func parseHeapRecord(line string) (count, bytes int64, ok bool) {
	head, _, found := strings.Cut(line, " @ ")
	if !found {
		return 0, 0, false
	}
	objsStr, rest, found := strings.Cut(head, ": ")
	if !found {
		return 0, 0, false
	}
	bytesStr, _, _ := strings.Cut(rest, " [")
	objs, err1 := strconv.ParseInt(strings.TrimSpace(objsStr), 10, 64)
	b, err2 := strconv.ParseInt(strings.TrimSpace(bytesStr), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return objs, b, true
}

// parseRecords walks "<weights> @ addrs" records, each followed by
// "#\t0xADDR\tfunc+off\tfile:line" frame lines, aggregating by the first
// non-runtime frame. The heap profile's trailing "# MemStats" commentary
// (plain "# Key = Value" lines, no 0x frame address) is ignored.
func parseRecords(sc *bufio.Scanner, kind string, total int64, parse func(string) (int64, int64, bool)) (*Summary, error) {
	agg := map[string]*Site{}
	var cur *Site // site of the record whose frames we are reading
	var anchored bool
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#"):
			if cur == nil || anchored {
				continue
			}
			fn, ok := frameFunc(line)
			if !ok {
				continue
			}
			if strings.HasPrefix(fn, "runtime.") {
				continue // park/wait plumbing; anchor on the code that blocked
			}
			anchored = true
			addTo(agg, fn, cur.Count, cur.Bytes)
			cur = nil
		case strings.TrimSpace(line) == "":
			finishRecord(agg, cur, anchored)
			cur, anchored = nil, false
		default:
			finishRecord(agg, cur, anchored)
			cur, anchored = nil, false
			if c, b, ok := parse(line); ok {
				cur = &Site{Count: c, Bytes: b}
			}
		}
	}
	finishRecord(agg, cur, anchored)
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &Summary{Kind: kind, Total: total, Sites: sortedSites(agg)}, nil
}

// finishRecord flushes a record whose stack was all runtime frames (or had
// no frames at all) into the catch-all site.
func finishRecord(agg map[string]*Site, cur *Site, anchored bool) {
	if cur != nil && !anchored {
		addTo(agg, "(runtime)", cur.Count, cur.Bytes)
	}
}

// addTo adds count and bytes to the named site, creating it on first use.
func addTo(agg map[string]*Site, name string, count, bytes int64) {
	site := agg[name]
	if site == nil {
		site = &Site{Name: name}
		agg[name] = site
	}
	site.Count += count
	site.Bytes += bytes
}

// frameFunc extracts the function name from a "#\t0xADDR\tfunc+0xOFF\t..."
// frame line. Non-frame "#" commentary (heap MemStats trailer) returns false.
func frameFunc(line string) (string, bool) {
	fields := strings.Fields(strings.TrimPrefix(line, "#"))
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "0x") {
		return "", false
	}
	fn := fields[1]
	if i := strings.LastIndex(fn, "+0x"); i > 0 {
		fn = fn[:i]
	}
	return fn, true
}

// sortedSites flattens agg, hottest (in a diff: largest growth) first.
func sortedSites(agg map[string]*Site) []Site {
	sites := make([]Site, 0, len(agg))
	for _, site := range agg {
		sites = append(sites, *site)
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].Bytes != sites[j].Bytes {
			return sites[i].Bytes > sites[j].Bytes
		}
		if sites[i].Count != sites[j].Count {
			return sites[i].Count > sites[j].Count
		}
		return sites[i].Name < sites[j].Name
	})
	return sites
}

// Diff returns per-site changes b − a, largest growth first. Sites present
// on only one side count as fully added/removed.
func Diff(a, b *Summary) []Site {
	m := map[string]*Site{}
	for _, s := range b.Sites {
		addTo(m, s.Name, s.Count, s.Bytes)
	}
	for _, s := range a.Sites {
		addTo(m, s.Name, -s.Count, -s.Bytes)
	}
	for name, d := range m {
		if d.Count == 0 && d.Bytes == 0 {
			delete(m, name) // unchanged
		}
	}
	return sortedSites(m)
}

// WriteTop renders the n hottest sites of a summary as aligned text.
func WriteTop(w io.Writer, s *Summary, n int) {
	fmt.Fprintf(w, "%s profile: total %d, %d sites\n", s.Kind, s.Total, len(s.Sites))
	for i, site := range s.Sites {
		if n > 0 && i >= n {
			fmt.Fprintf(w, "… %d more sites\n", len(s.Sites)-n)
			break
		}
		if s.Kind == "heap" {
			fmt.Fprintf(w, "%12d B %8d objs  %s\n", site.Bytes, site.Count, site.Name)
		} else {
			fmt.Fprintf(w, "%8d  %s\n", site.Count, site.Name)
		}
	}
}

// WriteDiff renders the top-n site deltas between two summaries.
func WriteDiff(w io.Writer, a, b *Summary, n int) {
	deltas := Diff(a, b)
	fmt.Fprintf(w, "%s diff: total %+d, %d sites changed\n", b.Kind, b.Total-a.Total, len(deltas))
	for i, d := range deltas {
		if n > 0 && i >= n {
			fmt.Fprintf(w, "… %d more sites\n", len(deltas)-n)
			break
		}
		if b.Kind == "heap" {
			fmt.Fprintf(w, "%+12d B %+8d objs  %s\n", d.Bytes, d.Count, d.Name)
		} else {
			fmt.Fprintf(w, "%+8d  %s\n", d.Count, d.Name)
		}
	}
}
