package profile

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/pprof"
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

// fetch takes a profile of this process the way the collector takes one of
// a node: a GET of net/http/pprof's handler for kind, in the debug=1 text
// format.
func fetch(t *testing.T, kind Kind) []byte {
	t.Helper()
	srv := httptest.NewServer(pprof.Handler(string(kind)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s profile: status %d, err %v", kind, resp.StatusCode, err)
	}
	return data
}

// siteCount is the goroutine count ParseText files under the site whose
// name contains anchor (0 when none does).
func siteCount(s *Summary, anchor string) int64 {
	for _, site := range s.Sites {
		if strings.Contains(site.Name, anchor) {
			return site.Count
		}
	}
	return 0
}

func TestCaptureGoroutineAndParse(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var started sync.WaitGroup
	leakForTest(25, release, &started)
	started.Wait()

	// A goroutine that has signalled started may still be inside
	// WaitGroup.Done, an anchor of its own: dump until all 25 are parked.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		data := fetch(t, KindGoroutine)
		if !strings.Contains(string(data), "leakForTest") {
			t.Fatal("raw capture does not mention the leaked frame")
		}
		s, err := ParseText(data)
		if err != nil {
			t.Fatalf("ParseText: %v", err)
		}
		if s.Kind != "goroutine" || s.Total < 25 {
			t.Fatalf("summary kind=%s total=%d, want goroutine >= 25", s.Kind, s.Total)
		}
		n := siteCount(s, "leakForTest")
		if n >= 25 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak site count = %d, want >= 25; sites: %+v", n, s.Sites)
		}
	}
}

func TestCaptureHeapAndParse(t *testing.T) {
	s, err := ParseText(fetch(t, KindHeap))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if s.Kind != "heap" {
		t.Errorf("kind = %s, want heap", s.Kind)
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
	before := fetch(t, KindGoroutine)
	release := make(chan struct{})
	defer close(release)
	var started sync.WaitGroup
	leakForDiffTest(40, release, &started)
	started.Wait()
	a, err := ParseText(before)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseText(fetch(t, KindGoroutine))
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
