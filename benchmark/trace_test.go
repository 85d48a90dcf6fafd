package main

import "testing"

// A span's self time is its duration minus the part of its interval that its
// children cover: overlapping children count once, and a child that sticks
// out of its parent is clipped.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Layer: "client", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Layer: "solver", StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 1, Layer: "solver", StartNS: 50, EndNS: 80}, // overlaps span 2 by 10
		{ID: 4, Parent: 1, Layer: "route", StartNS: 90, EndNS: 130}, // sticks out by 30
		{ID: 5, Parent: 2, Layer: "rt", StartNS: 20, EndNS: 30},
		{ID: 6, Parent: 2, Layer: "rt", StartNS: 30, EndNS: 45},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (50 + 20 + 10), // children cover [10,80] and [90,100]
		2: 50 - 25,
		3: 30,
		4: 40,
		5: 10,
		6: 15,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

// Self times of one operation's tree add up to its root's duration when no
// child leaves its parent, which is what lets a layer table be compared with
// an end-to-end time.
func TestLayerSelfSumsToRoot(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 7, Layer: "client", StartNS: 0, EndNS: 4e6},
		{ID: 2, Parent: 1, Op: 7, Layer: "solver", StartNS: 1e6, EndNS: 3e6},
		{ID: 3, Parent: 2, Op: 7, Layer: "rt", StartNS: 1.5e6, EndNS: 2.5e6},
		{ID: 4, Op: 8, Layer: "client", StartNS: 0, EndNS: 9e6}, // another operation
	}
	byLayer := layerSelfMS(spans, func(op int) bool { return op == 7 })
	if got := byLayer["client"] + byLayer["solver"] + byLayer["rt"]; got != 4 {
		t.Errorf("layers sum to %v ms, want the root's 4 ms", got)
	}
	if byLayer["client"] != 2 || byLayer["solver"] != 1 || byLayer["rt"] != 1 {
		t.Errorf("per-layer self times = %v", byLayer)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, tr.newOp(), "rt", "run")
	tr.end(id)
	tr.count("x", 1)
	if id != 0 {
		t.Errorf("nil tracer handed out span id %d", id)
	}
}
