package embed

import (
	"strings"
	"testing"

	"torusmesh/internal/grid"
	"torusmesh/internal/perm"
)

// mapIndex maps guest rank x to its host rank through the embedding's
// current kernel — its table once materialized — without
// materializing one.
func mapIndex(e *Embedding, x int) int {
	var dst, src [1]int
	src[0] = x
	e.cachedKernel().EvalBatch(dst[:], src[:])
	return dst[0]
}

func TestIdentityEmbedding(t *testing.T) {
	from := grid.MeshSpec(3, 4)
	to := grid.TorusSpec(3, 4)
	e, err := Identity(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	if d := e.Dilation(); d != 1 {
		t.Errorf("mesh -> same-shape torus dilation = %d, want 1", d)
	}
}

func TestIdentityRejectsShapeMismatch(t *testing.T) {
	if _, err := Identity(grid.MeshSpec(3, 4), grid.MeshSpec(4, 3)); err == nil {
		t.Error("identity accepted different shapes")
	}
}

func TestNewRejectsSizeMismatch(t *testing.T) {
	_, err := NewKernel(grid.MeshSpec(3, 4), grid.MeshSpec(3, 5), "x", 0, identityKernel{})
	if err == nil {
		t.Error("NewKernel accepted mismatched sizes")
	}
	_, err = NewRows(grid.MeshSpec(3, 4), grid.MeshSpec(3, 5), "x", 0, func(i, v int) int { return v })
	if err == nil {
		t.Error("NewRows accepted mismatched sizes")
	}
}

func TestPermuteIsIsomorphism(t *testing.T) {
	from := grid.TorusSpec(4, 2, 3)
	p := perm.Perm{2, 0, 1} // new shape (3,4,2)
	e, err := Permute(from, p, grid.Torus)
	if err != nil {
		t.Fatal(err)
	}
	if !e.To.Shape.Equal(grid.Shape{3, 4, 2}) {
		t.Fatalf("permuted shape = %s", e.To.Shape)
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	if d := e.Dilation(); d != 1 {
		t.Errorf("permutation dilation = %d, want 1", d)
	}
	// Also mesh -> mesh.
	em, err := Permute(grid.MeshSpec(4, 2, 3), p, grid.Mesh)
	if err != nil {
		t.Fatal(err)
	}
	if d := em.Dilation(); d != 1 {
		t.Errorf("mesh permutation dilation = %d, want 1", d)
	}
}

func TestPermuteValidation(t *testing.T) {
	if _, err := Permute(grid.MeshSpec(2, 3), perm.Perm{0}, grid.Mesh); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := Permute(grid.MeshSpec(2, 3), perm.Perm{0, 0}, grid.Mesh); err == nil {
		t.Error("invalid permutation accepted")
	}
}

func TestCompose(t *testing.T) {
	a := grid.MeshSpec(2, 6)
	p := perm.Perm{1, 0}
	e1, err := Permute(a, p, grid.Mesh) // (2,6) -> (6,2)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Identity(e1.To, grid.TorusSpec(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compose(e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if d := c.Dilation(); d != 1 {
		t.Errorf("composed dilation = %d, want 1", d)
	}
	if c.Predicted != 1 {
		t.Errorf("composed predicted = %d, want 1", c.Predicted)
	}
	if !strings.Contains(c.Strategy, "∘") {
		t.Errorf("composed strategy = %q", c.Strategy)
	}
	// Mismatched middle spec.
	e3, _ := Identity(grid.MeshSpec(6, 2), grid.MeshSpec(6, 2))
	if _, err := Compose(e2, e3); err == nil {
		t.Error("Compose accepted mismatched middle specs")
	}
}

func TestComposeAll(t *testing.T) {
	a := grid.MeshSpec(2, 3)
	e1, _ := Identity(a, grid.TorusSpec(2, 3))
	e2, _ := Permute(e1.To, perm.Perm{1, 0}, grid.Torus)
	c, err := ComposeAll(e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	if c.From.String() != a.String() || !c.To.Shape.Equal(grid.Shape{3, 2}) {
		t.Errorf("ComposeAll endpoints wrong: %s -> %s", c.From, c.To)
	}
	if _, err := ComposeAll(); err == nil {
		t.Error("empty ComposeAll accepted")
	}
}

func TestVerifyCatchesCollisions(t *testing.T) {
	from := grid.LineSpec(4)
	to := grid.LineSpec(4)
	e, err := New(from, to, "collision", 0, func(n grid.Node) grid.Node {
		return grid.Node{0} // everything to node 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(); err == nil {
		t.Error("Verify accepted non-injective map")
	}
}

func TestVerifyCatchesOutOfBounds(t *testing.T) {
	from := grid.LineSpec(3)
	to := grid.LineSpec(3)
	e, _ := New(from, to, "oob", 0, func(n grid.Node) grid.Node {
		return grid.Node{n[0] + 1}
	})
	if err := e.Verify(); err == nil {
		t.Error("Verify accepted out-of-bounds map")
	}
}

func TestDilationOfReversal(t *testing.T) {
	// Reversing a line is an automorphism: dilation 1.
	from := grid.LineSpec(5)
	e, _ := New(from, from, "reverse", 1, func(n grid.Node) grid.Node {
		return grid.Node{4 - n[0]}
	})
	if d := e.Dilation(); d != 1 {
		t.Errorf("reversal dilation = %d, want 1", d)
	}
	// Ring into line by identity has dilation n-1 (the wrap edge).
	ring := grid.RingSpec(5)
	line := grid.LineSpec(5)
	e2, _ := New(ring, line, "id", 0, func(n grid.Node) grid.Node { return n.Clone() })
	if d := e2.Dilation(); d != 4 {
		t.Errorf("ring->line identity dilation = %d, want 4", d)
	}
}

func TestCheckPredicted(t *testing.T) {
	ring := grid.RingSpec(6)
	line := grid.LineSpec(6)
	e, _ := New(ring, line, "bad-claim", 2, func(n grid.Node) grid.Node { return n.Clone() })
	if _, err := e.CheckPredicted(); err == nil {
		t.Error("CheckPredicted accepted dilation 5 against guarantee 2")
	}
	good, _ := New(ring, grid.RingSpec(6), "id", 1, func(n grid.Node) grid.Node { return n.Clone() })
	if d, err := good.CheckPredicted(); err != nil || d != 1 {
		t.Errorf("CheckPredicted = %d, %v", d, err)
	}
}

func TestTableAndMapIndex(t *testing.T) {
	from := grid.MeshSpec(2, 3)
	p := perm.Perm{1, 0}
	e, _ := Permute(from, p, grid.Mesh)
	table := e.Table()
	if len(table) != 6 {
		t.Fatalf("table len = %d", len(table))
	}
	e2, err := FromTable(from, e.To, "table", 1, table)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Verify(); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 6; x++ {
		if mapIndex(e, x) != mapIndex(e2, x) {
			t.Fatalf("table round trip differs at %d", x)
		}
	}
	if _, err := FromTable(from, e.To, "short", 0, table[:3]); err == nil {
		t.Error("FromTable accepted short table")
	}
}

func TestAverageDilation(t *testing.T) {
	ring := grid.RingSpec(4)
	line := grid.LineSpec(4)
	e, _ := New(ring, line, "id", 0, func(n grid.Node) grid.Node { return n.Clone() })
	// Edges 0-1,1-2,2-3 have distance 1; wrap 3-0 has distance 3.
	want := (1.0 + 1 + 1 + 3) / 4
	if got := e.AverageDilation(); got != want {
		t.Errorf("average dilation = %v, want %v", got, want)
	}
}

func TestRotate(t *testing.T) {
	// Torus rotations are automorphisms: unit dilation, verified.
	tor := grid.TorusSpec(4, 3)
	rot, err := Rotate(tor, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if rot.Predicted != 1 {
		t.Errorf("torus rotation predicted %d, want 1", rot.Predicted)
	}
	if err := rot.Verify(); err != nil {
		t.Fatal(err)
	}
	if d := rot.Dilation(); d != 1 {
		t.Errorf("torus rotation dilation %d, want 1", d)
	}
	if got := rot.Map(grid.Node{3, 2}); !got.Equal(grid.Node{0, 1}) {
		t.Errorf("Map(3,2) = %v, want (0,1)", got)
	}

	// Offsets normalize modulo the lengths; all-zero is the identity.
	id, err := Rotate(tor, []int{4, -3})
	if err != nil {
		t.Fatal(err)
	}
	if got := id.Map(grid.Node{1, 1}); !got.Equal(grid.Node{1, 1}) {
		t.Errorf("normalized identity moved (1,1) to %v", got)
	}
	if id.Predicted != 1 {
		t.Errorf("identity rotation predicted %d, want 1", id.Predicted)
	}

	// Mesh rotations are bijections but not automorphisms: the seam of
	// the rotated dimension stretches across the whole axis.
	msh := grid.LineSpec(6)
	tear, err := Rotate(msh, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if tear.Predicted != 0 {
		t.Errorf("mesh rotation predicted %d, want 0 (no guarantee)", tear.Predicted)
	}
	if err := tear.Verify(); err != nil {
		t.Fatal(err)
	}
	if d := tear.Dilation(); d != 5 {
		t.Errorf("line rotation dilation %d, want 5 (the seam edge)", d)
	}

	if _, err := Rotate(tor, []int{1}); err == nil {
		t.Error("offset-length mismatch accepted")
	}
}
