package main

import "testing"

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one nested child", []span{{Start: 10, End: 40}}, 70},
		{"overlapping children count once", []span{{Start: 10, End: 40}, {Start: 30, End: 60}, {Start: 50, End: 70}}, 40},
		{"a child inside another", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"disjoint children", []span{{Start: 0, End: 10}, {Start: 90, End: 100}}, 80},
		{"a child past the end is clipped", []span{{Start: 90, End: 130}}, 90},
		{"an out-of-line child is charged its duration", []span{{Start: 10, End: 40}, {Start: 200, End: 225}}, 45},
		{"children covering more than the parent leave zero", []span{{Start: 0, End: 100}, {Start: 150, End: 160}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestLayerTableChargesDirectChildrenOnly pins that a grandchild is part
// of its parent's child, not of the root's self time.
func TestLayerTableChargesDirectChildrenOnly(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "grandchild", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "child", Start: 50, End: 80},
	}
	self := make(map[string][]float64)
	for _, r := range layerTable(spans) {
		self[r.Name] = r.SelfMs
	}
	ms := func(ns float64) float64 { return ns / 1e6 } // layerTable reports milliseconds
	if got := self["root"]; len(got) != 1 || got[0] != ms(30) {
		t.Errorf("root self = %v, want [30ns]", got)
	}
	if got := self["child"]; len(got) != 2 || got[0] != ms(20) || got[1] != ms(30) {
		t.Errorf("child self = %v, want [20ns 30ns]", got)
	}
	if got := self["grandchild"]; len(got) != 1 || got[0] != ms(30) {
		t.Errorf("grandchild self = %v, want [30ns]", got)
	}
}
