package grid

import "testing"

func TestNodeStringAndConcat(t *testing.T) {
	n := Node{1, 2, 3}
	if n.String() != "(1,2,3)" {
		t.Errorf("Node.String = %q", n.String())
	}
	c := Concat(Node{1, 2}, Node{3}, Node{})
	if !c.Equal(Node{1, 2, 3}) {
		t.Errorf("Concat = %v", c)
	}
	if n.Equal(Node{1, 2}) {
		t.Error("Equal accepted different lengths")
	}
	clone := n.Clone()
	clone[0] = 9
	if n[0] == 9 {
		t.Error("Clone aliases the original")
	}
}

func TestSpecIsHypercube(t *testing.T) {
	if !TorusSpec(2, 2, 2).IsHypercube() {
		t.Error("2x2x2 torus not hypercube")
	}
	if MeshSpec(2, 3).IsHypercube() {
		t.Error("2x3 mesh reported hypercube")
	}
}

func TestKindString(t *testing.T) {
	if Torus.String() != "torus" || Mesh.String() != "mesh" {
		t.Error("kind strings wrong")
	}
	if Kind(9).String() == "torus" {
		t.Error("invalid kind stringified as torus")
	}
	if Kind(9).Valid() {
		t.Error("invalid kind accepted")
	}
	if _, err := ParseKind("array"); err != nil {
		t.Error("array alias rejected")
	}
	if _, err := ParseKind("grid"); err != nil {
		t.Error("grid alias rejected")
	}
}

func TestNewSpecValidation(t *testing.T) {
	if _, err := NewSpec(Kind(7), Shape{2, 2}); err == nil {
		t.Error("invalid kind accepted")
	}
	if _, err := NewSpec(Torus, Shape{2, 1}); err == nil {
		t.Error("invalid shape accepted")
	}
	sp, err := NewSpec(Mesh, Shape{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// NewSpec clones the shape.
	orig := Shape{2, 3}
	sp2, _ := NewSpec(Mesh, orig)
	orig[0] = 9
	if sp2.Shape[0] == 9 {
		t.Error("NewSpec aliases the caller's shape")
	}
	_ = sp
}

func TestMustSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSpec did not panic")
		}
	}()
	MustSpec(Torus, Shape{0})
}

func TestGraphAllPairsAndIsEdge(t *testing.T) {
	g := Build(RingSpec(5))
	d := g.AllPairs()
	if d[0][2] != 2 || d[0][4] != 1 {
		t.Errorf("AllPairs distances wrong: %v", d[0])
	}
	if !g.IsEdge(0, 1) || g.IsEdge(0, 2) {
		t.Error("IsEdge wrong")
	}
	if !g.Connected() {
		t.Error("ring disconnected")
	}
}

func TestInBoundsEdges(t *testing.T) {
	s := Shape{3, 3}
	if (Node{1}).InBounds(s) {
		t.Error("short node in bounds")
	}
	if (Node{1, 3}).InBounds(s) {
		t.Error("overflow coordinate in bounds")
	}
	if (Node{-1, 0}).InBounds(s) {
		t.Error("negative coordinate in bounds")
	}
}

// TestRankDistancerMaterializeParity: the division-free materialized
// decode must agree with the on-the-fly decode (and with the coordinate
// Distance) on every rank pair of assorted specs.
func TestRankDistancerMaterializeParity(t *testing.T) {
	specs := []Spec{
		MeshSpec(4, 3, 2),
		TorusSpec(5, 4),
		TorusSpec(2, 3, 2),
		MeshSpec(24),
		RingSpec(7),
	}
	for _, sp := range specs {
		plain := sp.NewRankDistancer()
		mat := sp.NewRankDistancer().Materialize()
		n := sp.Size()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := sp.Distance(sp.Shape.NodeAt(a), sp.Shape.NodeAt(b))
				if got := plain.Distance(a, b); got != want {
					t.Fatalf("%s: plain Distance(%d,%d) = %d, want %d", sp, a, b, got, want)
				}
				if got := mat.Distance(a, b); got != want {
					t.Fatalf("%s: materialized Distance(%d,%d) = %d, want %d", sp, a, b, got, want)
				}
			}
		}
	}
	// Power-of-two shapes keep the shift/mask path; Materialize is a
	// no-op that must not disturb it.
	sp := TorusSpec(4, 8)
	rd := sp.NewRankDistancer().Materialize()
	for a := 0; a < sp.Size(); a += 3 {
		for b := 0; b < sp.Size(); b += 5 {
			if got, want := rd.Distance(a, b), sp.Distance(sp.Shape.NodeAt(a), sp.Shape.NodeAt(b)); got != want {
				t.Fatalf("%s: pow2 Distance(%d,%d) = %d, want %d", sp, a, b, got, want)
			}
		}
	}
}

// TestRankDistancerMaxSum: the fused reduction of a materialized
// distancer agrees with the maximum and the sum of Distance.
func TestRankDistancerMaxSum(t *testing.T) {
	sp := TorusSpec(5, 3, 2)
	rd := sp.NewRankDistancer().Materialize()
	var ha, hb []int
	wantMax, wantSum := 0, int64(0)
	for a := 0; a < sp.Size(); a++ {
		b := (a*7 + 3) % sp.Size()
		ha = append(ha, a)
		hb = append(hb, b)
		d := sp.Distance(sp.Shape.NodeAt(a), sp.Shape.NodeAt(b))
		wantMax = max(wantMax, d)
		wantSum += int64(d)
	}
	gotMax, gotSum := rd.MaxSum(ha, hb)
	if gotMax != wantMax {
		t.Errorf("MaxSum max = %d, Distance max = %d", gotMax, wantMax)
	}
	if gotSum != wantSum {
		t.Errorf("MaxSum sum = %d, Distance sum = %d", gotSum, wantSum)
	}
}
