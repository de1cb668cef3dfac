package obs

import (
	"testing"
	"time"
)

// TestZeroHandle pins the nil-safety component configs rely on: a zero Handle
// records metrics into a private registry and drops spans, events and logs.
func TestZeroHandle(t *testing.T) {
	var zero Handle
	a, b := zero.Scoped("broker", "b1"), zero.Scoped("broker", "b2")
	if a.Metrics == nil || a.Metrics == b.Metrics {
		t.Fatal("Scoped must give each zero handle its own private registry")
	}
	a.Metrics.Counter("narada_test_total", "Test counter.").Inc()
	if got := len(b.Metrics.ExportSnapshot()); got != 0 {
		t.Errorf("a private registry leaked %d families into another", got)
	}
	a.Logger.Info("discarded") // must not panic or print
	if tr := a.Tracer.Trace("req"); tr != nil {
		t.Error("nil tracer produced a trace")
	}
	a.Tracer.Trace("req").Span("s", time.Now(), time.Second)
	a.Journal.Emit(EventNodeStart, "b1", "")
	if a.Journal.Len() != 0 || a.Tracer.Len() != 0 {
		t.Error("nil journal or tracer retained something")
	}

	reg := NewRegistry()
	if got := (Handle{Metrics: reg}).Scoped("bdn", "d").Metrics; got != reg {
		t.Error("Scoped replaced a supplied registry")
	}
}
