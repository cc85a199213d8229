package netsim

import (
	"slices"
	"testing"

	"torusmesh/internal/grid"
	"torusmesh/internal/taskgraph"
)

// TestContentionSerializesSharedLinks builds a star task graph whose
// packets all funnel into one hub over shared line links: the phase must
// take longer than the longest individual path because links carry one
// packet per cycle.
func TestContentionSerializesSharedLinks(t *testing.T) {
	nw := New(grid.LineSpec(6))
	star := &taskgraph.Graph{
		Name:  "star",
		N:     4,
		Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}},
	}
	// Hub at line node 0; leaves strung out to the right so all inbound
	// packets share the link 1 -> 0.
	p := Placement{0, 1, 2, 3}
	r, err := Simulate(nw, star, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxHops != 3 {
		t.Fatalf("max hops = %d, want 3", r.MaxHops)
	}
	// Three packets cross link 1->0 (from tasks 1, 2, 3); the last can
	// finish no earlier than cycle 5 (arrive at node 1 by cycle 2, then
	// wait for two earlier crossings).
	if r.Cycles <= r.MaxHops {
		t.Errorf("cycles = %d, want > max hops %d (contention must serialize)", r.Cycles, r.MaxHops)
	}
	if r.MaxLinkLoad != 3 {
		t.Errorf("peak link load = %d, want 3", r.MaxLinkLoad)
	}
}

// TestNoContentionMatchesDistance verifies the complement: disjoint
// paths finish in exactly max-hops cycles.
func TestNoContentionMatchesDistance(t *testing.T) {
	nw := New(grid.LineSpec(8))
	pairs := &taskgraph.Graph{
		Name:  "pairs",
		N:     4,
		Edges: [][2]int{{0, 1}, {2, 3}},
	}
	p := Placement{0, 2, 5, 7}
	r, err := Simulate(nw, pairs, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != r.MaxHops {
		t.Errorf("cycles = %d, maxHops = %d; disjoint paths should not wait", r.Cycles, r.MaxHops)
	}
}

// TestCongestionStats checks the static congestion computation against
// the star scenario above.
func TestCongestionStats(t *testing.T) {
	nw := New(grid.LineSpec(6))
	star := &taskgraph.Graph{
		Name:  "star",
		N:     4,
		Edges: [][2]int{{0, 1}, {0, 2}, {0, 3}},
	}
	p := Placement{0, 1, 2, 3}
	c, err := Congestion(nw, star, p)
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxLink != 3 {
		t.Errorf("MaxLink = %d, want 3 (all three inbound routes share 1->0)", c.MaxLink)
	}
	if c.TotalHops != 12 {
		t.Errorf("TotalHops = %d, want 12 (1+2+3 each way)", c.TotalHops)
	}
	if c.UsedLinks != 6 {
		t.Errorf("UsedLinks = %d, want 6 (three links, both directions)", c.UsedLinks)
	}
	if _, err := Congestion(nw, star, Placement{0}); err == nil {
		t.Error("bad placement accepted")
	}
	bad := &taskgraph.Graph{Name: "bad", N: 2, Edges: [][2]int{{0, 5}}}
	if _, err := Congestion(nw, bad, Placement{0, 1}); err == nil {
		t.Error("bad task graph accepted")
	}
	if nw.Size() != 6 {
		t.Errorf("Size = %d", nw.Size())
	}
}

// TestTorusWrapRouting checks that torus routing uses the short way
// around, wrapping in either direction, and that a tie (forward ==
// l/2) goes toward increasing coordinates, with or without a wrap.
func TestTorusWrapRouting(t *testing.T) {
	for _, tc := range []struct {
		ring, src, dst int
		want           []int
	}{
		{8, 7, 1, []int{7, 0, 1}},    // wraps upward
		{6, 1, 5, []int{1, 0, 5}},    // wraps downward
		{6, 0, 3, []int{0, 1, 2, 3}}, // tie, no wrap
		{6, 4, 1, []int{4, 5, 0, 1}}, // tie, wraps upward
		{6, 2, 2, []int{2}},
	} {
		if got := New(grid.RingSpec(tc.ring)).Route(tc.src, tc.dst); !slices.Equal(got, tc.want) {
			t.Errorf("ring(%d): Route(%d, %d) = %v, want %v", tc.ring, tc.src, tc.dst, got, tc.want)
		}
	}
}

func TestAvgLink(t *testing.T) {
	if got := (CongestionStats{}).AvgLink(); got != 0 {
		t.Errorf("empty AvgLink = %v, want 0", got)
	}
	s := CongestionStats{TotalHops: 12, UsedLinks: 6, MaxLink: 3}
	if got := s.AvgLink(); got != 2 {
		t.Errorf("AvgLink = %v, want 2", got)
	}
}
