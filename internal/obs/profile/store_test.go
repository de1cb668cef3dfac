package profile

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// spoolState returns the store-named files in dir and their total size.
func spoolState(t *testing.T, dir string) (files []string, total int64) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".pprof") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, e.Name())
		total += info.Size()
	}
	return files, total
}

// TestStore drives the one profile store through every bound, in memory and
// spooled: eviction is oldest-first and takes the spooled file with it, an
// evicted id misses, a capture over the whole byte budget is rejected whole,
// and listings are newest-first with Data stripped.
func TestStore(t *testing.T) {
	base := time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)
	bounds := []struct {
		name     string
		maxCount int
		maxBytes int64
		sizes    []int // captures added, in order
		survive  []int // indexes of sizes still held at the end, oldest first
	}{
		{"count", 3, 1 << 20, []int{10, 10, 10, 10, 10}, []int{2, 3, 4}},
		{"bytes", 100, 30, []int{10, 10, 10, 10, 10}, []int{2, 3, 4}},
		// The count bound evicts the first capture, the byte bound the next two.
		{"both", 3, 100, []int{10, 10, 10, 10, 90}, []int{3, 4}},
	}
	for _, b := range bounds {
		for _, spooled := range []bool{false, true} {
			name, dir := b.name+"/memory", ""
			if spooled {
				name, dir = b.name+"/spool", t.TempDir()
			}
			t.Run(name, func(t *testing.T) {
				st, err := NewStore(dir, b.maxCount, b.maxBytes)
				if err != nil {
					t.Fatal(err)
				}
				var added []Capture
				var bodies [][]byte
				for i, size := range b.sizes {
					data := bytes.Repeat([]byte{byte('a' + i)}, size)
					cp, err := st.Add(Capture{Node: "b1", Kind: KindHeap, Trigger: "periodic",
						At: base.Add(time.Duration(i) * time.Second), Data: data})
					if err != nil {
						t.Fatalf("Add %d: %v", i, err)
					}
					if cp.Data != nil || cp.Size != size || cp.URL != "/profiles/"+cp.ID {
						t.Fatalf("Add %d returned %+v, want a listing entry", i, cp)
					}
					added, bodies = append(added, cp), append(bodies, data)
				}
				if _, err := st.Add(Capture{Node: "b1", Kind: KindHeap, Data: make([]byte, b.maxBytes+1)}); err == nil {
					t.Error("capture over the whole byte budget accepted")
				}

				var wantBytes int64
				alive := make(map[int]bool)
				for _, i := range b.survive {
					alive[i] = true
					wantBytes += int64(b.sizes[i])
				}
				if st.Count() != len(b.survive) || st.Bytes() != wantBytes {
					t.Fatalf("count=%d bytes=%d, want %d/%d", st.Count(), st.Bytes(), len(b.survive), wantBytes)
				}
				for i, cp := range added {
					got, ok := st.Get(cp.ID)
					if ok != alive[i] {
						t.Fatalf("Get(%s) ok=%v, want %v (eviction must be oldest-first)", cp.ID, ok, alive[i])
					}
					if ok && !bytes.Equal(got.Data, bodies[i]) {
						t.Fatalf("Get(%s) returned other bytes", cp.ID)
					}
					if spooled {
						_, err := os.Stat(filepath.Join(dir, cp.ID+".pprof"))
						if alive[i] != (err == nil) {
							t.Fatalf("spool file of %s: stat err=%v, alive=%v", cp.ID, err, alive[i])
						}
					}
				}
				if spooled {
					if files, total := spoolState(t, dir); len(files) != st.Count() || total != st.Bytes() {
						t.Fatalf("spool holds %d files / %d bytes, store accounts %d / %d", len(files), total, st.Count(), st.Bytes())
					}
				}
				list := st.List(Filter{})
				if len(list) != len(b.survive) {
					t.Fatalf("listed %d, want %d", len(list), len(b.survive))
				}
				for k, cp := range list { // newest first
					want := added[b.survive[len(b.survive)-1-k]]
					if cp.ID != want.ID || cp.Data != nil {
						t.Fatalf("list[%d] = %+v, want %s with Data stripped", k, cp, want.ID)
					}
				}
			})
		}
	}

	t.Run("filters", func(t *testing.T) {
		st, err := NewStore("", 10, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range []Capture{
			{Node: "b1", Kind: KindHeap, Trigger: "periodic"},
			{Node: "b1", Kind: KindGoroutine, Trigger: "flight:deadman"},
			{Node: "b2", Kind: KindGoroutine, Trigger: "flight:gc_burn"},
			{Kind: KindCPU, Trigger: "manual"}, // a node's own capture: no Node, no URL
		} {
			c.At, c.Data = base.Add(time.Duration(i)*time.Second), []byte("x")
			if _, err := st.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		for _, tc := range []struct {
			name string
			f    Filter
			want []string // ids, newest first
		}{
			{"all", Filter{}, []string{"000004-cpu", "000003-b2-goroutine", "000002-b1-goroutine", "000001-b1-heap"}},
			{"node", Filter{Node: "b1"}, []string{"000002-b1-goroutine", "000001-b1-heap"}},
			{"kind", Filter{Kind: KindGoroutine}, []string{"000003-b2-goroutine", "000002-b1-goroutine"}},
			{"trigger prefix", Filter{Trigger: "flight"}, []string{"000003-b2-goroutine", "000002-b1-goroutine"}},
			{"since is strict", Filter{Since: base.Add(2 * time.Second)}, []string{"000004-cpu"}},
			{"combined", Filter{Node: "b1", Trigger: "flight:"}, []string{"000002-b1-goroutine"}},
		} {
			var got []string
			for _, cp := range st.List(tc.f) {
				got = append(got, cp.ID)
			}
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Errorf("%s: listed %v, want %v", tc.name, got, tc.want)
			}
		}
		if cp, _ := st.Get("000004-cpu"); cp.Node != "" || cp.URL != "" {
			t.Errorf("node-less capture carries node/url: %+v", cp)
		}
	})
}

// TestStoreSpoolSurvivesReopenWithinBounds reopens a store on the directory a
// previous run spooled into: the old files are re-indexed and evicted in
// order, so the directory never holds more than the bounds, and a new
// capture never lands on a live one's file.
func TestStoreSpoolSurvivesReopenWithinBounds(t *testing.T) {
	const maxCount, maxBytes, size = 2, 2500, 1000
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("operator's own file"), 0o644); err != nil {
		t.Fatal(err)
	}
	live := make(map[string][]byte) // id → bytes, for every capture the store should still hold
	check := func(st *Store, when string) {
		t.Helper()
		files, total := spoolState(t, dir)
		if len(files) > maxCount || total > maxBytes {
			t.Fatalf("%s: directory holds %d files / %d bytes, bounds are %d / %d: %v",
				when, len(files), total, maxCount, maxBytes, files)
		}
		if len(files) != st.Count() || total != st.Bytes() {
			t.Fatalf("%s: directory holds %d files / %d bytes, store accounts %d / %d",
				when, len(files), total, st.Count(), st.Bytes())
		}
		for _, cp := range st.List(Filter{}) {
			got, ok := st.Get(cp.ID)
			if !ok || !bytes.Equal(got.Data, live[cp.ID]) {
				t.Fatalf("%s: live capture %s unreadable or overwritten", when, cp.ID)
			}
		}
	}
	add := func(st *Store, node string, fill byte) {
		t.Helper()
		data := bytes.Repeat([]byte{fill}, size)
		cp, err := st.Add(Capture{Node: node, Kind: KindHeap, Trigger: "periodic", At: time.Now(), Data: data})
		if err != nil {
			t.Fatal(err)
		}
		if _, taken := live[cp.ID]; taken {
			t.Fatalf("id %s handed out twice", cp.ID)
		}
		live[cp.ID] = data
	}

	first, err := NewStore(dir, maxCount, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		add(first, "n", byte('a'+i))
		check(first, "first run")
	}

	second, err := NewStore(dir, maxCount, maxBytes) // the restart
	if err != nil {
		t.Fatal(err)
	}
	check(second, "reopened")
	recovered := second.List(Filter{Node: "n", Kind: KindHeap, Trigger: "recovered"})
	if len(recovered) != 2 {
		t.Fatalf("reopen re-indexed %d captures, want the 2 the first run held: %+v", len(recovered), recovered)
	}
	for i := 0; i < 4; i++ {
		add(second, "n", byte('p'+i)) // same node and kind as the recovered files
		check(second, "second run")
	}
	if _, err := os.Stat(filepath.Join(dir, "README.txt")); err != nil {
		t.Errorf("a file the store did not write was touched: %v", err)
	}
}
