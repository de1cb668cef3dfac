package health

import (
	"strings"
	"testing"
	"time"
)

// TestGoroutineLeakRule asserts the leak rule needs BOTH the absolute growth
// and the relative ratio: a big node's churn (large delta, small ratio) and a
// tiny node's startup (large ratio, small delta) both stay quiet.
func TestGoroutineLeakRule(t *testing.T) {
	e := New(at1s, Config{})
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	in := func(minG, lastG float64) Input {
		return Input{Now: now, Nodes: []NodeInput{{
			Name: "b1", LastSeen: now,
			HasGoroutines: true, GoroutinesMin: minG, GoroutinesLast: lastG,
		}}}
	}

	// Large absolute growth, tiny ratio: a 10k-goroutine node wobbling.
	e.Evaluate(in(10000, 10600))
	if e.Firing() != 0 {
		t.Fatal("fired on large-baseline churn (ratio guard failed)")
	}
	// Large ratio, small absolute growth: a small process starting workers.
	e.Evaluate(in(10, 100))
	if e.Firing() != 0 {
		t.Fatal("fired on small absolute growth (growth guard failed)")
	}
	// Both guards breached: 200 → 900 is a leak.
	e.Evaluate(in(200, 900))
	if e.Firing() != 1 {
		t.Fatalf("firing = %d, want 1", e.Firing())
	}
	alerts := e.Alerts()
	if alerts[0].Rule != RuleGoroutineLeak {
		t.Fatalf("rule = %s, want %s", alerts[0].Rule, RuleGoroutineLeak)
	}
	if !strings.Contains(alerts[0].Message, "900") {
		t.Errorf("message misses the observed count: %s", alerts[0].Message)
	}
}

func TestGCBurnRule(t *testing.T) {
	e := New(at1s, Config{})
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	in := func(frac float64) Input {
		return Input{Now: now, Nodes: []NodeInput{{
			Name: "b1", LastSeen: now, HasGCCPU: true, GCCPUFraction: frac,
		}}}
	}
	e.Evaluate(in(0.10))
	if e.Firing() != 0 {
		t.Fatal("fired at 10% GC CPU, default max is 25%")
	}
	e.Evaluate(in(0.40))
	if e.Firing() != 1 {
		t.Fatalf("firing = %d, want 1", e.Firing())
	}
	if got := e.Alerts()[0].Rule; got != RuleGCBurn {
		t.Fatalf("rule = %s, want %s", got, RuleGCBurn)
	}
}

func TestRuntimeRuleDefaults(t *testing.T) {
	if at1s.GoroutineLeak != 5*time.Minute || goroutineLeakGrowth != 500 ||
		goroutineLeakRatio != 1.5 || at1s.GCBurn != 2*time.Minute || gcBurnMax != 0.25 ||
		fastBurnMax != 14.4 || slowBurnMax != 6 {
		t.Fatalf("runtime rule defaults = %+v", at1s)
	}
}
