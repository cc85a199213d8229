package reduce

import (
	"slices"
	"testing"

	"torusmesh/internal/catalog"
	"torusmesh/internal/embed"
	"torusmesh/internal/expand"
	"torusmesh/internal/gray"
	"torusmesh/internal/grid"
	"torusmesh/internal/perm"
	"torusmesh/internal/radix"
)

// The per-node maps of Definitions 35, 38 and 42, as the paper writes
// them. The constructions write the same maps as digit rows; these
// closures are the oracles their rows are checked against.

// uv returns the digit-grouping map U_V of Definition 38 from the graph
// of shape V̄ = V1∘...∘Vc to the graph of shape M: the coordinates of
// group k, read as a radix-Vk number, become host coordinate k.
func uv(f SimpleFactor) func(grid.Node) grid.Node {
	bases := make([]radix.Base, len(f))
	for k, v := range f {
		bases[k] = radix.Base(append([]int(nil), v...))
	}
	return func(n grid.Node) grid.Node {
		out := make(grid.Node, len(bases))
		off := 0
		for k, b := range bases {
			out[k] = radix.FromDigits(b, grid.Node(n[off:off+len(b)]))
			off += len(b)
		}
		return out
	}
}

// tl returns the same-shape torus-to-mesh map T_L of Definition 35:
// coordinate i becomes t_{l_i}(x_i).
func tl(L grid.Shape) func(grid.Node) grid.Node {
	return func(n grid.Node) grid.Node {
		out := make(grid.Node, len(n))
		for i, x := range n {
			out[i] = gray.TN(L[i], x)
		}
		return out
	}
}

// simpleNode is Theorem 39's map: U_V∘τ, with T_{V̄} between the two
// when a torus embeds in a mesh.
func simpleNode(g, h grid.Spec, f SimpleFactor) func(grid.Node) grid.Node {
	flat := f.Flat()
	tau, _ := perm.Find(g.Shape, flat)
	group := uv(f)
	if g.Kind == grid.Torus && h.Kind == grid.Mesh {
		t := tl(flat)
		return func(n grid.Node) grid.Node { return group(t(grid.Node(perm.Apply(tau, n)))) }
	}
	return func(n grid.Node) grid.Node { return group(grid.Node(perm.Apply(tau, n))) }
}

// generalNode is Theorem 43's supernode map β∘F'_S∘α (guest meshes),
// β∘G'_S∘α (torus into torus) or β∘G”_S∘α (torus into mesh): α aligns
// the guest with L'∘L”, the multiplicands (through t_n for a torus
// into a mesh) scale by S̄ and the multipliers' expansion adds the
// offset within the supernode, and β aligns the result with the host.
func generalNode(g, h grid.Spec, f *GeneralFactor) func(grid.Node) grid.Node {
	c := h.Dim()
	alpha, _ := perm.Find(g.Shape, append(f.LPrime.Clone(), f.LDouble...))
	beta, _ := perm.Find(f.HostShape(), h.Shape)
	flatS := f.FlatS()
	b := len(flatS)
	ef := make(expand.Factor, len(f.S))
	for i, s := range f.S {
		ef[i] = append([]int(nil), s...)
	}
	offsetOf, useT := expand.GV(ef), g.Kind == grid.Torus && h.Kind == grid.Mesh
	if g.Kind == grid.Mesh {
		offsetOf = expand.FV(ef)
	}
	return func(n grid.Node) grid.Node {
		aligned := perm.Apply(alpha, n)
		base := aligned[:c]
		if useT {
			shifted := make([]int, c)
			for j := 0; j < c; j++ {
				shifted[j] = gray.TN(f.LPrime[j], base[j])
			}
			base = shifted
		}
		offset := offsetOf(grid.Node(aligned[c:]))
		out := make(grid.Node, c)
		for j := 0; j < b; j++ {
			out[j] = flatS[j]*base[j] + offset[j]
		}
		for j := b; j < c; j++ {
			out[j] = base[j]
		}
		return grid.Node(perm.Apply(beta, []int(out)))
	}
}

// rowSizes are the catalog sizes the row checks walk, the pairs the
// census and the parity tests construct.
var rowSizes = []int{12, 16, 18, 24, 27}

var kinds = []grid.Kind{grid.Mesh, grid.Torus}

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

// forEachReduction calls fn on every ordered pair of catalog shapes of
// the row sizes whose host has fewer dimensions than its guest, at
// every kind combination.
func forEachReduction(fn func(g, h grid.Spec)) {
	for _, n := range rowSizes {
		shapes := catalog.ShapesOfSize(n, 0)
		for _, gs := range shapes {
			for _, hs := range shapes {
				if hs.Dim() >= gs.Dim() {
					continue
				}
				for _, gk := range kinds {
					for _, hk := range kinds {
						fn(grid.Spec{Kind: gk, Shape: gs}, grid.Spec{Kind: hk, Shape: hs})
					}
				}
			}
		}
	}
}

// simpleFactors returns every simple-reduction factor of L into M: each
// group a sub-multiset of L with product m_k, in non-increasing order.
// Every factor a construction reaches is one of them: FindSimple's pick
// and the prime refinement's prime factorization of each m_k.
func simpleFactors(L, M grid.Shape) []SimpleFactor {
	left := slices.Sorted(slices.Values(L))
	slices.Reverse(left)
	used := make([]bool, len(left))
	var out []SimpleFactor
	f := make(SimpleFactor, len(M))
	var group func(k, from, rem int, acc []int)
	group = func(k, from, rem int, acc []int) {
		if rem == 1 && len(acc) > 0 {
			f[k] = slices.Clone(acc)
			if k+1 == len(M) {
				if !slices.Contains(used, false) {
					out = append(out, slices.Clone(f))
				}
				return
			}
			group(k+1, 0, M[k+1], nil)
			return
		}
		for j := from; j < len(left); j++ {
			// Equal values are interchangeable: take the first unused.
			if used[j] || rem%left[j] != 0 || (j > from && left[j] == left[j-1] && !used[j-1]) {
				continue
			}
			used[j] = true
			group(k, j+1, rem/left[j], append(acc, left[j]))
			used[j] = false
		}
	}
	group(0, 0, M[0], nil)
	return out
}

// generalFactors returns every general-reduction factor of L into M
// that Validate accepts: each choice of the multiplier positions, each
// ordered factorization of every multiplier, and each ordering of the
// multiplicands. FindGeneral's pick and the square chains' steps are
// among them.
func generalFactors(L, M grid.Shape) []*GeneralFactor {
	d, c := len(L), len(M)
	if !(c < d && d < 2*c) {
		return nil
	}
	var out []*GeneralFactor
	for mask := 0; mask < 1<<d; mask++ {
		var lPrime, lDouble grid.Shape
		for i, l := range L {
			if mask>>i&1 != 0 {
				lDouble = append(lDouble, l)
			} else {
				lPrime = append(lPrime, l)
			}
		}
		if len(lDouble) != d-c {
			continue
		}
		s := make([][]int, len(lDouble))
		var split func(i int)
		split = func(i int) {
			if i == len(lDouble) {
				for _, p := range perm.All(c) {
					gf := &GeneralFactor{LPrime: grid.Shape(perm.Apply(p, lPrime)), LDouble: lDouble, S: slices.Clone(s)}
					if gf.Validate(L, M) == nil {
						out = append(out, gf)
					}
				}
				return
			}
			for _, parts := range orderedFactorizations(lDouble[i]) {
				s[i] = parts
				split(i + 1)
			}
		}
		split(0)
	}
	return out
}

// orderedFactorizations returns every ordered list of integers > 1
// whose product is v.
func orderedFactorizations(v int) [][]int {
	out := [][]int{{v}}
	for f := 2; f < v; f++ {
		if v%f != 0 {
			continue
		}
		for _, rest := range orderedFactorizations(v / f) {
			out = append(out, append([]int{f}, rest...))
		}
	}
	return out
}

// TestSameShapeRowsMatchClosure: T_L's rows equal Definition 35's map on
// every catalog shape of the row sizes.
func TestSameShapeRowsMatchClosure(t *testing.T) {
	for _, n := range rowSizes {
		for _, s := range catalog.ShapesOfSize(n, 0) {
			if s.IsHypercube() {
				continue
			}
			e, err := SameShape(grid.Spec{Kind: grid.Torus, Shape: s}, grid.Spec{Kind: grid.Mesh, Shape: s})
			if err != nil {
				t.Fatal(err)
			}
			checkRows(t, e, tl(s))
		}
	}
}

// TestSimpleRowsMatchClosures: U_V∘τ's and U_V∘T∘τ's rows equal
// Theorem 39's per-node map for every simple-reduction factor of every
// reducing catalog pair of the row sizes, at every kind combination.
// That covers every simple reduction the dispatcher, the square
// constructions and the prime refinement's second stage build there.
func TestSimpleRowsMatchClosures(t *testing.T) {
	checked := 0
	forEachReduction(func(g, h grid.Spec) {
		for _, f := range simpleFactors(g.Shape, h.Shape) {
			e, err := WithSimpleFactor(g, h, f)
			if err != nil {
				t.Fatalf("%s -> %s with %v: %v", g, h, f, err)
			}
			checkRows(t, e, simpleNode(g, h, f))
			checked++
		}
	})
	t.Logf("checked %d simple reductions", checked)
}

// TestGeneralRowsMatchClosures: the general reduction's rows equal
// Theorem 43's per-node supernode map for every general-reduction
// factor of every reducing catalog pair of the row sizes, at every
// kind combination.
func TestGeneralRowsMatchClosures(t *testing.T) {
	checked := 0
	forEachReduction(func(g, h grid.Spec) {
		for _, f := range generalFactors(g.Shape, h.Shape) {
			e, err := WithGeneralFactor(g, h, f)
			if err != nil {
				t.Fatalf("%s -> %s with %+v: %v", g, h, f, err)
			}
			checkRows(t, e, generalNode(g, h, f))
			checked++
		}
	})
	t.Logf("checked %d general reductions", checked)
}
