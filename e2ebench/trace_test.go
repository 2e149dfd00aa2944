package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		// A pass whose two circuits overlap in time.
		{ID: 1, Name: "pass", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "exper.circuit", Start: 5 * ms, End: 60 * ms},
		{ID: 3, Parent: 1, Name: "exper.circuit", Start: 10 * ms, End: 90 * ms},
		// Layers of the first circuit, leaving 55-10-20 = 25 ms of self time.
		{ID: 4, Parent: 2, Name: "atpg.generate", Start: 5 * ms, End: 15 * ms},
		{ID: 5, Parent: 2, Name: "detect.run", Start: 30 * ms, End: 50 * ms},
		// A layer of the second circuit with a nested child.
		{ID: 6, Parent: 3, Name: "atpg.generate", Start: 10 * ms, End: 90 * ms},
		{ID: 7, Parent: 6, Name: "dot.discretize", Start: 20 * ms, End: 30 * ms},
		// A child that runs past its parent counts only inside it.
		{ID: 8, Parent: 5, Name: "sta.analyze", Start: 45 * ms, End: 70 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"pass":           (5 + 10) * ms,  // 100 minus the union 5..90
		"exper.circuit":  25 * ms,        // the second is covered by its only child
		"atpg.generate":  (10 + 70) * ms, // 10 + (80 - 10)
		"detect.run":     15 * ms,        // 20 minus 45..50
		"dot.discretize": 10 * ms,
		"sta.analyze":    25 * ms,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %d names, want %d: %v", len(got), len(want), got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("pass", 0)
	child := tr.begin("atpg.generate", root)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].End < spans[1].End {
		t.Fatalf("unexpected spans %+v", spans)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("pass", 0); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	nilTracer.end(0)
}
