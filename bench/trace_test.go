package main

import "testing"

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	var r recorder
	root := r.add(0, "1", "op", 0, 100)
	a := r.add(root, "1", "a", 10, 40)
	r.add(a, "1", "b", 15, 25)
	r.add(root, "1", "c", 40, 90)
	self := r.selfTimes()
	if self["op"] != 20 || self["a"] != 20 || self["b"] != 10 || self["c"] != 50 {
		t.Fatalf("self times %v", self)
	}
	if got := r.rootCoverage(); got != 0.8 {
		t.Fatalf("coverage %v, want 0.8", got)
	}
	// Overlapping and overhanging children are counted once, inside the parent.
	var o recorder
	p := o.add(0, "1", "op", 0, 100)
	o.add(p, "1", "x", 0, 60)
	o.add(p, "1", "y", 50, 120)
	if got := o.selfTimes()["op"]; got != 0 {
		t.Fatalf("overlap: root self %d, want 0", got)
	}
}
