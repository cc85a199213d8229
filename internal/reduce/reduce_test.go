package reduce

import (
	"testing"

	"torusmesh/internal/grid"
)

func TestFindSimpleBasic(t *testing.T) {
	f, ok := FindSimple(grid.Shape{4, 2, 3}, grid.Shape{4, 6})
	if !ok {
		t.Fatal("FindSimple failed")
	}
	if err := f.Validate(grid.Shape{4, 2, 3}, grid.Shape{4, 6}); err != nil {
		t.Fatal(err)
	}
	if d := f.Dilation(); d != 2 {
		t.Errorf("dilation bound = %d, want 2 (groups (4),(3,2))", d)
	}
}

func TestFindSimplePicksBestGrouping(t *testing.T) {
	// L = (6,2,2,3), M = (12,6): grouping ((6,2),(3,2)) has bound
	// max(12/6, 6/3) = 2 while ((3,2,2),(6)) has bound max(12/3, 6/6) = 4.
	// FindSimple must return the bound-2 grouping even though the greedy
	// non-decreasing enumeration meets the bad one first.
	f, ok := FindSimple(grid.Shape{6, 2, 2, 3}, grid.Shape{12, 6})
	if !ok {
		t.Fatal("FindSimple failed")
	}
	if err := f.Validate(grid.Shape{6, 2, 2, 3}, grid.Shape{12, 6}); err != nil {
		t.Fatal(err)
	}
	if d := f.Dilation(); d != 2 {
		t.Errorf("dilation bound = %d, want 2, factor %v", d, f)
	}
}

func TestFindSimpleRejects(t *testing.T) {
	if _, ok := FindSimple(grid.Shape{4, 2}, grid.Shape{4, 2, 3}); ok {
		t.Error("accepted increasing dimension")
	}
	if _, ok := FindSimple(grid.Shape{5, 5}, grid.Shape{10}); ok {
		t.Error("accepted non-partitionable shape (5*5 vs 10)")
	}
	if _, ok := FindSimple(grid.Shape{6, 6}, grid.Shape{9, 4}); ok {
		t.Error("accepted mismatched grouping (no subset of {6,6} multiplies to 9)")
	}
}

func TestSimpleFactorValidateRejects(t *testing.T) {
	L := grid.Shape{4, 2, 3}
	M := grid.Shape{4, 6}
	if err := (SimpleFactor{{4}, {2, 3}}).Validate(L, M); err == nil {
		t.Error("accepted group (2,3) that is not non-increasing")
	}
	if err := (SimpleFactor{{4}, {6}}).Validate(L, M); err == nil {
		t.Error("accepted factor whose flat list is not a permutation of L")
	}
	if err := (SimpleFactor{{4}}).Validate(L, M); err == nil {
		t.Error("accepted wrong group count")
	}
	if err := (SimpleFactor{{4}, {3, 2}}).Validate(L, M); err != nil {
		t.Errorf("rejected valid factor: %v", err)
	}
}

// TestTheorem39Dilations checks measured dilation against the
// max m_k / l_{v_k} bound for all four kind combinations.
func TestTheorem39Dilations(t *testing.T) {
	type pair struct {
		L, M  grid.Shape
		bound int
	}
	pairs := []pair{
		{grid.Shape{4, 2, 3}, grid.Shape{4, 6}, 2},
		{grid.Shape{2, 2, 2, 2}, grid.Shape{4, 4}, 2}, // hypercube -> square
		{grid.Shape{2, 2, 2, 2}, grid.Shape{4, 2, 2}, 2},
		{grid.Shape{3, 4}, grid.Shape{12}, 3}, // to a line/ring
		{grid.Shape{4, 4}, grid.Shape{16}, 4}, // MN86 comparison
		{grid.Shape{3, 3, 3}, grid.Shape{9, 3}, 3},
		{grid.Shape{5, 2, 2}, grid.Shape{10, 2}, 2},
	}
	for _, p := range pairs {
		for _, gk := range []grid.Kind{grid.Mesh, grid.Torus} {
			for _, hk := range []grid.Kind{grid.Mesh, grid.Torus} {
				g := grid.MustSpec(gk, p.L)
				h := grid.MustSpec(hk, p.M)
				e, err := EmbedSimple(g, h)
				if err != nil {
					t.Errorf("%s -> %s: %v", g, h, err)
					continue
				}
				if err := e.Verify(); err != nil {
					t.Errorf("%s -> %s: %v", g, h, err)
					continue
				}
				d := e.Dilation()
				want := p.bound
				if gk == grid.Torus && hk == grid.Mesh {
					want *= 2
				}
				if d > want {
					t.Errorf("%s -> %s: dilation %d exceeds Theorem 39 bound %d", g, h, d, want)
				}
				if d > e.Predicted {
					t.Errorf("%s -> %s: dilation %d exceeds prediction %d", g, h, d, e.Predicted)
				}
			}
		}
	}
}

// TestMN86TorusIntoRing checks the Section 5 comparison case: an
// (l,l)-torus embeds in a ring of the same size with dilation exactly l,
// matching the optimal result of Ma & Narahari.
func TestMN86TorusIntoRing(t *testing.T) {
	for _, l := range []int{2, 3, 4, 5} {
		g := grid.TorusSpec(l, l)
		h := grid.RingSpec(l * l)
		e, err := EmbedSimple(g, h)
		if err != nil {
			t.Fatalf("l=%d: %v", l, err)
		}
		if d := e.Dilation(); d != l {
			t.Errorf("l=%d: dilation = %d, want %d", l, d, l)
		}
	}
}

// TestFitzgerald2DMeshIntoLine checks that an (l,l)-mesh embeds in a line
// with dilation exactly l (truly optimal per Fitzgerald).
func TestFitzgerald2DMeshIntoLine(t *testing.T) {
	for _, l := range []int{2, 3, 4, 5} {
		g := grid.MeshSpec(l, l)
		h := grid.LineSpec(l * l)
		e, err := EmbedSimple(g, h)
		if err != nil {
			t.Fatalf("l=%d: %v", l, err)
		}
		if d := e.Dilation(); d != l {
			t.Errorf("l=%d: dilation = %d, want %d", l, d, l)
		}
	}
}

func TestSameShape(t *testing.T) {
	// Torus into same-shape mesh: dilation exactly 2 (Lemma 36).
	e, err := SameShape(grid.TorusSpec(3, 3), grid.MeshSpec(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	if d := e.Dilation(); d != 2 {
		t.Errorf("torus -> mesh same shape dilation = %d, want 2", d)
	}
	// Hypercube: torus and mesh coincide, identity works.
	e2, err := SameShape(grid.TorusSpec(2, 2, 2), grid.MeshSpec(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if d := e2.Dilation(); d != 1 {
		t.Errorf("hypercube same shape dilation = %d, want 1", d)
	}
	// Mesh into torus: identity.
	e3, err := SameShape(grid.MeshSpec(3, 4), grid.TorusSpec(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if d := e3.Dilation(); d != 1 {
		t.Errorf("mesh -> torus same shape dilation = %d, want 1", d)
	}
	if _, err := SameShape(grid.MeshSpec(3, 4), grid.MeshSpec(4, 3)); err == nil {
		t.Error("SameShape accepted different shapes")
	}
}

// TestFigure12GeneralReduction reproduces Figure 12: a (3,3,6)-mesh
// embeds in a (6,9)-mesh with dilation exactly 3 by viewing both as
// (3,3)-grids of supernodes.
func TestFigure12GeneralReduction(t *testing.T) {
	g := grid.MeshSpec(3, 3, 6)
	h := grid.MeshSpec(6, 9)
	f, ok := FindGeneral(g.Shape, h.Shape)
	if !ok {
		t.Fatal("FindGeneral failed on Figure 12 shapes")
	}
	if got := f.MaxS(); got != 3 {
		t.Errorf("MaxS = %d, want 3", got)
	}
	e, err := WithGeneralFactor(g, h, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	if d := e.Dilation(); d != 3 {
		t.Errorf("dilation = %d, want 3", d)
	}
}

// TestGeneralReductionPaperExample validates the worked example below
// Definition 41: M = (4,3,5,28,10,18) is a general reduction of
// L = (2,3,2,10,6,21,5,4) with reduction factor ((5,2),(3,7)).
func TestGeneralReductionPaperExample(t *testing.T) {
	L := grid.Shape{2, 3, 2, 10, 6, 21, 5, 4}
	M := grid.Shape{4, 3, 5, 28, 10, 18}
	paper := &GeneralFactor{
		LPrime:  grid.Shape{2, 6, 4, 2, 3, 5}, // first three get multiplied by 5,2,3... see below
		LDouble: grid.Shape{10, 21},
		S:       [][]int{{5, 2}, {3, 7}},
	}
	// The paper's L' = (2,2,6,4,3,5) with [S∘(1,1)] x L' = (10,4,18,28,3,5).
	paper.LPrime = grid.Shape{2, 2, 6, 4, 3, 5}
	if err := paper.Validate(L, M); err != nil {
		t.Fatalf("paper factor rejected: %v", err)
	}
	found, ok := FindGeneral(L, M)
	if !ok {
		t.Fatal("FindGeneral failed")
	}
	if err := found.Validate(L, M); err != nil {
		t.Fatal(err)
	}
	if got := found.MaxS(); got != 7 {
		t.Errorf("found MaxS = %d, want 7 (21 must split as 3x7)", got)
	}
}

// TestTheorem43Dilations sweeps kind combinations over general-reduction
// pairs and asserts the Theorem 43 bounds.
func TestTheorem43Dilations(t *testing.T) {
	type pair struct {
		L, M grid.Shape
		maxS int
	}
	pairs := []pair{
		{grid.Shape{3, 3, 6}, grid.Shape{6, 9}, 3},
		{grid.Shape{2, 2, 4}, grid.Shape{4, 4}, 2},
		{grid.Shape{3, 4, 4}, grid.Shape{6, 8}, 2},
		{grid.Shape{5, 5, 4}, grid.Shape{10, 10}, 2},
	}
	for _, p := range pairs {
		for _, gk := range []grid.Kind{grid.Mesh, grid.Torus} {
			for _, hk := range []grid.Kind{grid.Mesh, grid.Torus} {
				g := grid.MustSpec(gk, p.L)
				h := grid.MustSpec(hk, p.M)
				e, err := EmbedGeneral(g, h)
				if err != nil {
					t.Errorf("%s -> %s: %v", g, h, err)
					continue
				}
				if err := e.Verify(); err != nil {
					t.Errorf("%s -> %s: %v", g, h, err)
					continue
				}
				d := e.Dilation()
				want := p.maxS
				if gk == grid.Torus && hk == grid.Mesh {
					want *= 2
				}
				if d > want {
					t.Errorf("%s -> %s: dilation %d exceeds Theorem 43 bound %d", g, h, d, want)
				}
			}
		}
	}
}

func TestEmbedDispatch(t *testing.T) {
	// Reduction prefers simple reduction when available.
	e, ok := Reduction(grid.MeshSpec(4, 2, 3), grid.MeshSpec(4, 6))
	if !ok {
		t.Fatal("(4,2,3) -> (4,6) has no reduction")
	}
	if e.Strategy != "simple-reduction/U_V∘τ" {
		t.Errorf("strategy = %q, want simple reduction", e.Strategy)
	}
	// Falls back to general reduction when no partition of L multiplies
	// to M's components: 6 is not a sub-product of {3,4,4}.
	e2, ok := Reduction(grid.MeshSpec(3, 4, 4), grid.MeshSpec(6, 8))
	if !ok {
		t.Fatal("(3,4,4) -> (6,8) has no reduction")
	}
	if e2.Strategy != "general-reduction/β∘F'_S∘α" {
		t.Errorf("strategy = %q, want general reduction", e2.Strategy)
	}
	// Size mismatch is rejected.
	if _, ok := Reduction(grid.MeshSpec(5, 7), grid.MeshSpec(7, 6)); ok {
		t.Error("size mismatch accepted")
	}
	if _, ok := Reduction(grid.MeshSpec(2, 3, 5), grid.MeshSpec(5, 6)); !ok {
		// (2,3,5) -> (5,6): simple grouping ((5),(3,2)) exists.
		t.Error("(2,3,5) -> (5,6) should embed via simple reduction")
	}
}

func TestFactorizations(t *testing.T) {
	got := factorizations(12, 2)
	want := map[string]bool{"[12]": true, "[2 6]": true, "[2 2 3]": true, "[3 4]": true}
	if len(got) != len(want) {
		t.Fatalf("factorizations(12) = %v, want 4 entries", got)
	}
	if len(factorizations(7, 2)) != 1 {
		t.Error("prime should have exactly one factorization")
	}
	if len(factorizations(1, 2)) != 0 {
		t.Error("1 should have no factorization")
	}
}
