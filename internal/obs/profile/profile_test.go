package profile

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// leakForTest blocks goroutines on a channel so a goroutine capture has a
// recognisable non-runtime anchor frame.
func leakForTest(n int, release chan struct{}, started *sync.WaitGroup) {
	for i := 0; i < n; i++ {
		started.Add(1)
		go func() {
			started.Done()
			<-release
		}()
	}
}

func TestCaptureGoroutineAndParse(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var started sync.WaitGroup
	leakForTest(25, release, &started)
	started.Wait()

	c := New(Config{})
	caps, err := c.CaptureNow("manual", KindGoroutine)
	if err != nil {
		t.Fatalf("CaptureNow: %v", err)
	}
	if len(caps) != 1 || caps[0].Kind != KindGoroutine {
		t.Fatalf("caps = %+v", caps)
	}
	got, ok := c.store.Get(caps[0].ID)
	if !ok {
		t.Fatal("Get: capture vanished")
	}
	if !strings.Contains(string(got.Data), "leakForTest") {
		t.Error("raw capture does not mention the leaked frame")
	}

	s, err := ParseText(got.Data)
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if s.Kind != "goroutine" || s.Total < 25 {
		t.Errorf("summary kind=%s total=%d, want goroutine >= 25", s.Kind, s.Total)
	}
	var leakSite *Site
	for i := range s.Sites {
		if strings.Contains(s.Sites[i].Name, "leakForTest") {
			leakSite = &s.Sites[i]
		}
	}
	if leakSite == nil {
		t.Fatalf("no site mentions leakForTest; sites: %+v", s.Sites)
	}
	if leakSite.Count < 25 {
		t.Errorf("leak site count = %d, want >= 25", leakSite.Count)
	}
}

func TestCaptureHeapAndParse(t *testing.T) {
	c := New(Config{})
	caps, err := c.CaptureNow("manual", KindHeap)
	if err != nil {
		t.Fatalf("CaptureNow: %v", err)
	}
	s, err := ParseText(caps[0].Data)
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if s.Kind != "heap" {
		t.Errorf("kind = %s, want heap", s.Kind)
	}
}

// TestRingBound checks the capturer hands its count bound to its store (the
// store's own eviction rules are TestStore's).
func TestRingBound(t *testing.T) {
	c := New(Config{maxCaptures: 3})
	var first Capture
	for i := 0; i < 5; i++ {
		caps, err := c.CaptureNow("manual", KindGoroutine)
		if err != nil {
			t.Fatalf("CaptureNow: %v", err)
		}
		if i == 0 {
			first = caps[0]
		}
	}
	list := c.store.List(Filter{})
	if len(list) != 3 {
		t.Fatalf("retained %d captures, want 3", len(list))
	}
	if _, ok := c.store.Get(first.ID); ok {
		t.Error("oldest capture not evicted")
	}
	if _, ok := c.store.Get(list[0].ID); !ok {
		t.Error("newest capture not retrievable")
	}
}

func TestOversizedCaptureDropped(t *testing.T) {
	c := New(Config{maxCaptureBytes: 1})
	caps, err := c.CaptureNow("manual", KindGoroutine)
	if err != nil {
		t.Fatalf("CaptureNow: %v", err)
	}
	if len(caps) != 0 {
		t.Fatalf("oversized capture stored: %+v", caps)
	}
}

// leakForDiffTest is a second, distinct anchor frame so TestGoroutineDiff's
// baseline is not polluted by still-draining goroutines from other tests.
func leakForDiffTest(n int, release chan struct{}, started *sync.WaitGroup) {
	for i := 0; i < n; i++ {
		started.Add(1)
		go func() {
			started.Done()
			<-release
		}()
	}
}

func TestGoroutineDiff(t *testing.T) {
	c := New(Config{})
	before, err := c.CaptureNow("manual", KindGoroutine)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	var started sync.WaitGroup
	leakForDiffTest(40, release, &started)
	started.Wait()
	after, err := c.CaptureNow("manual", KindGoroutine)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ParseText(before[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseText(after[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	var leak *Site
	for _, d := range Diff(a, b) {
		if strings.Contains(d.Name, "leakForDiffTest") {
			leak = &d
			break
		}
	}
	if leak == nil || leak.Count < 35 {
		t.Fatalf("diff did not surface the leak: %+v", leak)
	}
	var sb strings.Builder
	WriteDiff(&sb, a, b, 10)
	if !strings.Contains(sb.String(), "leakForDiffTest") {
		t.Errorf("WriteDiff output misses leak site:\n%s", sb.String())
	}
}

func TestHandlerListGetAndTop(t *testing.T) {
	c := New(Config{})
	if _, err := c.CaptureNow("periodic", KindGoroutine, KindHeap); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/profiles")
	if err != nil {
		t.Fatal(err)
	}
	var list []Capture
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	resp.Body.Close()
	if len(list) != 2 {
		t.Fatalf("listed %d captures, want 2", len(list))
	}

	resp, err = srv.Client().Get(srv.URL + "/profiles/" + list[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("get capture: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = srv.Client().Get(srv.URL + "/profiles/" + list[0].ID + "?view=top")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("top view: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = srv.Client().Get(srv.URL + "/profiles/nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 {
		t.Fatalf("missing capture: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestPeriodicLoopCaptures(t *testing.T) {
	c := New(Config{Interval: 30 * time.Millisecond, cpuDuration: 5 * time.Millisecond})
	c.Start()
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if list := c.store.List(Filter{}); len(list) >= 3 {
			byKind := map[Kind]bool{}
			for _, cp := range list {
				byKind[cp.Kind] = true
				if cp.Trigger != "periodic" {
					t.Fatalf("unexpected trigger %q", cp.Trigger)
				}
			}
			if !byKind[KindCPU] || !byKind[KindHeap] || !byKind[KindGoroutine] {
				t.Fatalf("kinds captured: %v", byKind)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("periodic loop produced no captures in 5s")
}
