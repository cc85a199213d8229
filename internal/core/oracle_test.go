package core

import (
	"testing"

	"torusmesh/internal/catalog"
	"torusmesh/internal/gray"
	"torusmesh/internal/grid"
	"torusmesh/internal/perm"
	"torusmesh/internal/radix"
)

// basicNode is Section 3's per-node map of a guest of dimension 1, as
// the paper writes it: f_L for a line (Theorem 13), h_L for a ring in
// a torus (Theorem 28), π∘h_{L*} for an even ring in a mesh of
// dimension at least 2, with an even length permuted to the front
// (Theorem 24), and g_L otherwise (Theorem 17). embedBasic writes the
// same maps as digit rows.
func basicNode(g, h grid.Spec) func(grid.Node) grid.Node {
	L := radix.Base(h.Shape)
	switch {
	case g.Kind == grid.Mesh:
		return func(n grid.Node) grid.Node { return gray.F(L, n[0]) }
	case h.Kind == grid.Torus:
		return func(n grid.Node) grid.Node { return gray.H(L, n[0]) }
	case g.Size()%2 == 0 && h.Dim() >= 2:
		lStar := h.Shape.Clone()
		for i, l := range lStar {
			if l%2 == 0 {
				lStar[0], lStar[i] = lStar[i], lStar[0]
				break
			}
		}
		pi, _ := perm.Find(lStar, h.Shape)
		return func(n grid.Node) grid.Node { return grid.Node(perm.Apply(pi, gray.H(radix.Base(lStar), n[0]))) }
	default:
		return func(n grid.Node) grid.Node { return gray.G(L, n[0]) }
	}
}

// TestBasicRowsMatchClosures: the basic maps' rows equal the paper's
// per-node maps for a line and a ring of every size the parity tests
// walk, into every catalog host of that size and kind. The other
// families' rows are checked against their closures in their own
// packages (Permute and Rotate in embed, F_V/G_V/H_V in expand, T_L,
// U_V and the general reduction in reduce), over every factor of the
// same catalog pairs, so every stage the dispatcher, the square chains
// and the prime refinement compose is checked against the paper.
func TestBasicRowsMatchClosures(t *testing.T) {
	for _, n := range []int{12, 16, 18, 24, 27} {
		for _, hs := range catalog.ShapesOfSize(n, 0) {
			for _, gk := range []grid.Kind{grid.Mesh, grid.Torus} {
				for _, hk := range []grid.Kind{grid.Mesh, grid.Torus} {
					g, h := grid.Spec{Kind: gk, Shape: grid.Shape{n}}, grid.Spec{Kind: hk, Shape: hs}
					e, err := embedBasic(g, h)
					if err != nil {
						t.Fatalf("%s -> %s: %v", g, h, err)
					}
					fn := basicNode(g, h)
					table := e.Table()
					for x, got := range table {
						if want := h.Shape.Index(fn(grid.Node{x})); got != want {
							t.Fatalf("%s -> %s (%s): rows map %d to rank %d, the closure to %d",
								g, h, e.Strategy, x, got, want)
						}
					}
				}
			}
		}
	}
}
