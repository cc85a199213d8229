package expand

import (
	"slices"
	"testing"

	"torusmesh/internal/catalog"
	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/perm"
)

// expansionNode is Theorem 32's per-node map π∘map_V: map_V is F_V for
// a guest mesh, H_V for a torus into a torus or, with an even-first
// factor, into a mesh, and G_V otherwise (Definition 31); π aligns V̄
// with the host shape. WithFactor writes the same map as digit rows.
func expansionNode(g, h grid.Spec, f Factor) func(grid.Node) grid.Node {
	pi, _ := perm.Find(f.Flat(), h.Shape)
	fn := GV(f)
	switch {
	case g.Kind == grid.Mesh:
		fn = FV(f)
	case h.Kind == grid.Torus || f.EvenFirst():
		fn = HV(f)
	}
	return func(n grid.Node) grid.Node { return grid.Node(perm.Apply(pi, fn(n))) }
}

// allFactors returns every expansion factor of L into M: for each l_i,
// every ordered list of M's remaining components whose product is l_i.
// Every factor a construction reaches is one of them: Find's and
// FindEvenFirst's picks, the prime refinement's prime factorization of
// each l_i, and the square constructions' equal lists.
func allFactors(L, M grid.Shape) []Factor {
	values := slices.Compact(slices.Sorted(slices.Values(M)))
	left := map[int]int{}
	for _, m := range M {
		left[m]++
	}
	var out []Factor
	f := make(Factor, len(L))
	var list func(i, rem int, acc []int)
	list = func(i, rem int, acc []int) {
		if rem == 1 {
			f[i] = slices.Clone(acc)
			if i+1 == len(L) {
				out = append(out, slices.Clone(f))
			} else {
				list(i+1, L[i+1], nil)
			}
			return
		}
		for _, m := range values {
			if left[m] == 0 || rem%m != 0 {
				continue
			}
			left[m]--
			list(i, rem/m, append(acc, m))
			left[m]++
		}
	}
	list(0, L[0], nil)
	return out
}

// TestExpansionRowsMatchClosures: π∘F_V's, π∘G_V's and π∘H_V's rows
// equal Theorem 32's per-node map for every expansion factor of every
// expanding pair of catalog shapes at the sizes the census and the
// parity tests walk, at every kind combination. That covers every
// expansion the dispatcher and the prime refinement's first stage
// build there.
func TestExpansionRowsMatchClosures(t *testing.T) {
	kinds := []grid.Kind{grid.Mesh, grid.Torus}
	checked := 0
	for _, n := range []int{12, 16, 18, 24, 27} {
		shapes := catalog.ShapesOfSize(n, 0)
		for _, gs := range shapes {
			for _, hs := range shapes {
				if gs.Dim() >= hs.Dim() {
					continue
				}
				for _, f := range allFactors(gs, hs) {
					for _, gk := range kinds {
						for _, hk := range kinds {
							g, h := grid.Spec{Kind: gk, Shape: gs}, grid.Spec{Kind: hk, Shape: hs}
							e, err := WithFactor(g, h, f)
							if err != nil {
								t.Fatalf("%s -> %s with %v: %v", g, h, f, err)
							}
							checkRows(t, e, expansionNode(g, h, f))
							checked++
						}
					}
				}
			}
		}
	}
	t.Logf("checked %d expansions", checked)
}

// checkRows compares the embedding's table with the closure, node by
// node.
func checkRows(t *testing.T, e *embed.Embedding, fn func(grid.Node) grid.Node) {
	t.Helper()
	table := e.Table()
	for x := range table {
		if want := e.To.Shape.Index(fn(e.From.Shape.NodeAt(x))); table[x] != want {
			t.Fatalf("%s -> %s (%s): rows map rank %d to %d, the closure to %d",
				e.From, e.To, e.Strategy, x, table[x], want)
		}
	}
}
