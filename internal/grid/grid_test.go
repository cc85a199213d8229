package grid

import (
	"testing"
	"testing/quick"
)

func TestParseShape(t *testing.T) {
	cases := []struct {
		in   string
		want Shape
		ok   bool
	}{
		{"4x2x3", Shape{4, 2, 3}, true},
		{"4,2,3", Shape{4, 2, 3}, true},
		{" 8 ", Shape{8}, true},
		{"2x2x2x2", Shape{2, 2, 2, 2}, true},
		{"", nil, false},
		{"4x1x3", nil, false},
		{"4xax3", nil, false},
		{"0", nil, false},
	}
	for _, c := range cases {
		got, err := ParseShape(c.in)
		if c.ok && (err != nil || !got.Equal(c.want)) {
			t.Errorf("ParseShape(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseShape(%q) succeeded with %v; want error", c.in, got)
		}
	}
}

func TestShapeBasics(t *testing.T) {
	s := Shape{4, 2, 3}
	if s.Size() != 24 {
		t.Fatalf("Size = %d, want 24", s.Size())
	}
	if s.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", s.Dim())
	}
	if s.IsSquare() {
		t.Error("4x2x3 reported square")
	}
	if !Square(3, 5).IsSquare() {
		t.Error("5x5x5 not reported square")
	}
	if !Hypercube(4).IsHypercube() {
		t.Error("2x2x2x2 not reported hypercube")
	}
	if (Shape{2, 3}).IsHypercube() {
		t.Error("2x3 reported hypercube")
	}
	if s.String() != "4x2x3" {
		t.Errorf("String = %q", s.String())
	}
}

func TestIndexRoundTrip(t *testing.T) {
	shapes := []Shape{{4, 2, 3}, {5}, {2, 2, 2, 2}, {3, 7}, {6, 4, 2, 3}}
	for _, s := range shapes {
		for x := 0; x < s.Size(); x++ {
			n := s.NodeAt(x)
			if !n.InBounds(s) {
				t.Fatalf("%s: NodeAt(%d) = %s out of bounds", s, x, n)
			}
			if got := s.Index(n); got != x {
				t.Fatalf("%s: Index(NodeAt(%d)) = %d", s, x, got)
			}
		}
	}
}

// TestPaperExampleDistances reproduces the worked distances below
// Figures 1 and 2 of the paper: in the (4,2,3)-torus the distance between
// (0,0,1) and (3,0,0) is 2, in the (4,2,3)-mesh it is 4.
func TestPaperExampleDistances(t *testing.T) {
	s := Shape{4, 2, 3}
	a := Node{0, 0, 1}
	b := Node{3, 0, 0}
	if d := DistanceTorus(s, a, b); d != 2 {
		t.Errorf("torus distance = %d, want 2", d)
	}
	if d := DistanceMesh(s, a, b); d != 4 {
		t.Errorf("mesh distance = %d, want 4", d)
	}
}

func TestDistanceMatchesBFS(t *testing.T) {
	specs := []Spec{
		TorusSpec(4, 2, 3),
		MeshSpec(4, 2, 3),
		TorusSpec(5, 5),
		MeshSpec(5, 5),
		RingSpec(7),
		LineSpec(7),
		TorusSpec(2, 2, 2),
		MeshSpec(2, 2, 2),
		TorusSpec(3, 2),
		MeshSpec(2, 6),
	}
	for _, sp := range specs {
		if err := Build(sp).CheckDistances(); err != nil {
			t.Errorf("%s: %v", sp, err)
		}
	}
}

func TestDeltaTLEDeltaM(t *testing.T) {
	// δt never exceeds δm for the same shape (Section 2).
	err := quick.Check(func(raw [3]uint8, ai, bi uint16) bool {
		s := Shape{int(raw[0]%4) + 2, int(raw[1]%4) + 2, int(raw[2]%4) + 2}
		a := s.NodeAt(int(ai) % s.Size())
		b := s.NodeAt(int(bi) % s.Size())
		return DistanceTorus(s, a, b) <= DistanceMesh(s, a, b)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestDistanceMetricProperties(t *testing.T) {
	// Symmetry and identity for both distance measures.
	err := quick.Check(func(raw [3]uint8, ai, bi uint16) bool {
		s := Shape{int(raw[0]%5) + 2, int(raw[1]%5) + 2, int(raw[2]%5) + 2}
		a := s.NodeAt(int(ai) % s.Size())
		b := s.NodeAt(int(bi) % s.Size())
		if DistanceTorus(s, a, b) != DistanceTorus(s, b, a) {
			return false
		}
		if DistanceMesh(s, a, b) != DistanceMesh(s, b, a) {
			return false
		}
		if DistanceTorus(s, a, a) != 0 || DistanceMesh(s, a, a) != 0 {
			return false
		}
		if !a.Equal(b) && (DistanceTorus(s, a, b) == 0 || DistanceMesh(s, a, b) == 0) {
			return false
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestNeighbors(t *testing.T) {
	// Interior node of a mesh has 2d neighbors; corners have d.
	m := MeshSpec(4, 4, 4)
	if got := len(m.Neighbors(Node{1, 1, 1}, nil)); got != 6 {
		t.Errorf("interior mesh node: %d neighbors, want 6", got)
	}
	if got := len(m.Neighbors(Node{0, 0, 0}, nil)); got != 3 {
		t.Errorf("corner mesh node: %d neighbors, want 3", got)
	}
	// Every torus node has the same degree; length-2 dimensions
	// contribute a single neighbor.
	tor := TorusSpec(4, 2, 3)
	if got := len(tor.Neighbors(Node{0, 0, 0}, nil)); got != 5 {
		t.Errorf("torus node: %d neighbors, want 5", got)
	}
	// Neighbors really are at distance 1.
	for _, sp := range []Spec{m, tor, RingSpec(5), LineSpec(5)} {
		node := sp.Shape.NodeAt(sp.Size() / 2)
		for _, nb := range sp.Neighbors(node, nil) {
			if d := sp.Distance(node, nb); d != 1 {
				t.Errorf("%s: neighbor %s of %s at distance %d", sp, nb, node, d)
			}
		}
	}
}

func TestEdgeCountMatchesVisit(t *testing.T) {
	specs := []Spec{
		TorusSpec(4, 2, 3), MeshSpec(4, 2, 3),
		TorusSpec(2, 2), MeshSpec(2, 2),
		RingSpec(6), LineSpec(6), TorusSpec(3, 3, 3), MeshSpec(5, 2),
	}
	for _, sp := range specs {
		count := 0
		sp.VisitEdges(func(a, b Node) {
			if sp.Distance(a, b) != 1 {
				t.Errorf("%s: visited non-edge %s-%s", sp, a, b)
			}
			count++
		})
		if count != sp.EdgeCount() {
			t.Errorf("%s: visited %d edges, EdgeCount=%d", sp, count, sp.EdgeCount())
		}
	}
}

func TestEdgeCountAgainstAdjacency(t *testing.T) {
	specs := []Spec{TorusSpec(4, 2, 3), MeshSpec(3, 3), TorusSpec(2, 2, 2), RingSpec(2)}
	for _, sp := range specs {
		g := Build(sp)
		half := 0
		for _, adj := range g.Adj {
			half += len(adj)
		}
		if half%2 != 0 {
			t.Fatalf("%s: odd adjacency sum %d", sp, half)
		}
		if got := half / 2; got != sp.EdgeCount() {
			t.Errorf("%s: adjacency says %d edges, EdgeCount=%d", sp, got, sp.EdgeCount())
		}
	}
}

func TestDegrees(t *testing.T) {
	// A hypercube of dimension d is d-regular.
	h := TorusSpec(2, 2, 2, 2)
	if got := h.MaxDegree(); got != 4 {
		t.Errorf("hypercube max degree = %d, want 4", got)
	}
	if got := MeshSpec(2, 2, 2, 2).MaxDegree(); got != 4 {
		t.Errorf("hypercube-as-mesh max degree = %d, want 4", got)
	}
	if got := TorusSpec(5, 5).MaxDegree(); got != 4 {
		t.Errorf("5x5 torus max degree = %d, want 4", got)
	}
	if got := MeshSpec(5, 5).MaxDegree(); got != 4 {
		t.Errorf("5x5 mesh max degree = %d, want 4", got)
	}
	if got := MeshSpec(5, 5).Degree(Node{0, 0}); got != 2 {
		t.Errorf("5x5 mesh corner degree = %d, want 2", got)
	}
}

func TestSpecParse(t *testing.T) {
	sp, err := ParseSpec("torus:4x2x3")
	if err != nil || sp.Kind != Torus || !sp.Shape.Equal(Shape{4, 2, 3}) {
		t.Errorf("ParseSpec(torus:4x2x3) = %v, %v", sp, err)
	}
	if _, err := ParseSpec("ring:3x3"); err == nil {
		t.Error("ring:3x3 should fail (rings are 1-dimensional)")
	}
	if _, err := ParseSpec("blob:3x3"); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, err := ParseSpec("mesh"); err == nil {
		t.Error("missing shape should fail")
	}
	// Node counts past an int would make Size wrap (to 0, or negative).
	for _, spec := range []string{"torus:4294967296x4294967296", "torus:3037000500x3037000500"} {
		if sp, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%s) accepted a shape of %d nodes", spec, sp.Size())
		}
	}
	if got := RingSpec(8).String(); got != "ring(8)" {
		t.Errorf("RingSpec String = %q", got)
	}
	if got := MeshSpec(4, 2).String(); got != "mesh(4x2)" {
		t.Errorf("MeshSpec String = %q", got)
	}
}

func TestGraphConnected(t *testing.T) {
	for _, sp := range []Spec{TorusSpec(4, 2, 3), MeshSpec(2, 2, 2), RingSpec(5), LineSpec(2)} {
		for x, d := range Build(sp).BFS(0) {
			if d < 0 {
				t.Errorf("%s: node %d unreachable from node 0", sp, x)
			}
		}
	}
}
