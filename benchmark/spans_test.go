package main

import (
	"math"
	"testing"
)

// Self time is duration minus the union of the children: overlapping
// children count once, children are clipped to the parent, grandchildren
// come off the child and not off the parent.
func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Layer: "client", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Layer: "httpv1", StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 1, Layer: "httpv1", StartNS: 40, EndNS: 70},  // overlaps span 2 by 10
		{ID: 4, Parent: 1, Layer: "httpv1", StartNS: 90, EndNS: 130}, // sticks out of the parent by 30
		{ID: 5, Parent: 2, Layer: "sched", StartNS: 20, EndNS: 30},
		{ID: 6, Parent: 1, Layer: "sched", StartNS: 95}, // never closed
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - (60 + 10), 2: 40 - 10, 3: 30, 4: 40, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
	if _, ok := self[6]; ok {
		t.Error("an open span was given a self time")
	}
}

// The unattributed share is the part of the window inside no busy span;
// waiting spans cover nothing.
func TestUnattributedShare(t *testing.T) {
	spans := []Span{
		{ID: 1, Layer: "sched", StartNS: 100, EndNS: 150},
		{ID: 2, Layer: "client", StartNS: 140, EndNS: 180}, // concurrent lane, overlaps 10
		{ID: 3, Layer: layerWait, StartNS: 100, EndNS: 300},
		{ID: 4, Layer: "store", StartNS: 50, EndNS: 110}, // starts before the window
	}
	perLayer, unattributed := layerTable(spans, 100, 300)
	// Covered: [100,180) of [100,300).
	if want := 1 - 80.0/200; math.Abs(unattributed-want) > 1e-12 {
		t.Errorf("unattributed share %v, want %v", unattributed, want)
	}
	if perLayer["sched"] != 50 || perLayer["client"] != 40 || perLayer["store"] != 60 {
		t.Errorf("per-layer self time %v", perLayer)
	}
	if _, ok := perLayer[layerWait]; ok {
		t.Error("waiting spans were counted as busy time")
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(1, 0, "client", "x")
	tr.end(id)
	tr.pop(tr.push(1, "sched", "y"))
	tr.record(1, 0, layerWait, "z", 1, 2)
	if id != 0 || tr.now() != 0 || tr.snapshot() != nil {
		t.Fatal("a nil tracer recorded something")
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	outer := tr.push(7, "sched", "drive")
	inner := tr.push(7, "harness", "tick")
	tr.pop(inner)
	sibling := tr.push(7, "sched", "settle")
	tr.pop(sibling)
	tr.pop(outer)
	spans := tr.snapshot()
	if spans[inner-1].Parent != outer || spans[sibling-1].Parent != outer || spans[outer-1].Parent != 0 {
		t.Fatalf("wrong parents: %+v", spans)
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS || s.EndNS == 0 {
			t.Fatalf("span %d not closed: %+v", s.ID, s)
		}
	}
}
