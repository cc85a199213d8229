// Package expand implements the paper's generalized embeddings for
// increasing dimension (Section 4.1): embedding a d-dimensional torus or
// mesh G in a c-dimensional torus or mesh H (d < c) whose shape is an
// *expansion* of G's shape (Definition 30). The embedding functions F_V,
// G_V and H_V (Definition 31) stretch each guest coordinate into a block
// of host coordinates using the basic sequences f, g and h, then a
// coordinate permutation π aligns the blocks with H's shape.
//
// Dilation guarantees (Theorem 32):
//
//	G mesh               -> dilation 1 via π ∘ F_V (optimal)
//	G torus, H torus     -> dilation 1 via π ∘ H_V (optimal)
//	G torus, H mesh      -> dilation 2 via π ∘ G_V (optimal for odd size);
//	                        dilation 1 via π ∘ H_V when an expansion factor
//	                        exists whose lists all have >= 2 components
//	                        with an even first component.
//
// Theorem 33: when H is a hypercube of the same power-of-two size, the
// condition of expansion always holds.
package expand

import (
	"fmt"
	"sort"

	"torusmesh/internal/embed"
	"torusmesh/internal/gray"
	"torusmesh/internal/grid"
	"torusmesh/internal/perm"
	"torusmesh/internal/radix"
)

// Factor is an expansion factor V = (V1, ..., Vd) of L into M: for every
// i, the product of Vi equals l_i, and the concatenation V1∘...∘Vd is a
// permutation of M (Definition 30).
type Factor [][]int

// Flat returns the concatenation V̄ = V1 ∘ V2 ∘ ... ∘ Vd.
func (f Factor) Flat() grid.Shape {
	n := 0
	for _, v := range f {
		n += len(v)
	}
	out := make(grid.Shape, 0, n)
	for _, v := range f {
		out = append(out, v...)
	}
	return out
}

// Validate checks that f is an expansion factor of L into M.
func (f Factor) Validate(L, M grid.Shape) error {
	if len(f) != len(L) {
		return fmt.Errorf("expand: factor has %d lists for %d dimensions", len(f), len(L))
	}
	for i, v := range f {
		if len(v) == 0 {
			return fmt.Errorf("expand: factor list %d is empty", i+1)
		}
		prod := 1
		for _, c := range v {
			if c < 2 {
				return fmt.Errorf("expand: factor list %d contains %d; components must be > 1", i+1, c)
			}
			prod *= c
		}
		if prod != L[i] {
			return fmt.Errorf("expand: factor list %d has product %d, want l_%d = %d", i+1, prod, i+1, L[i])
		}
	}
	if !perm.SameMultiset(f.Flat(), M) {
		return fmt.Errorf("expand: flattened factor %v is not a permutation of %v", f.Flat(), M)
	}
	return nil
}

// EvenFirst reports whether every list of the factor has at least two
// components and starts with an even one — the condition under which H_V
// embeds an even-size torus in a mesh with unit dilation (Theorem 32 iii).
func (f Factor) EvenFirst() bool {
	for _, v := range f {
		if len(v) < 2 || v[0]%2 != 0 {
			return false
		}
	}
	return true
}

// Find searches for an expansion factor of L into M. It returns false if
// M is not an expansion of L. The search backtracks over sub-multisets of
// M whose product matches each l_i in turn.
func Find(L, M grid.Shape) (Factor, bool) {
	return find(L, M, false)
}

// FindEvenFirst searches for an expansion factor whose lists all have at
// least two components with an even component present, then rotates an
// even component to the front of each list. Used to achieve unit dilation
// for even-size toruses into meshes.
func FindEvenFirst(L, M grid.Shape) (Factor, bool) {
	f, ok := find(L, M, true)
	if !ok {
		return nil, false
	}
	for _, v := range f {
		for j, c := range v {
			if c%2 == 0 {
				v[0], v[j] = v[j], v[0]
				break
			}
		}
	}
	return f, true
}

// find drives the backtracking. pool holds the remaining components of M
// as (value, count) pairs sorted by value.
func find(L, M grid.Shape, evenFirst bool) (Factor, bool) {
	if len(M) < len(L) {
		return nil, false
	}
	type entry struct{ value, count int }
	counts := map[int]int{}
	for _, m := range M {
		counts[m]++
	}
	values := make([]int, 0, len(counts))
	for v := range counts {
		values = append(values, v)
	}
	sort.Ints(values)
	pool := make([]entry, len(values))
	for i, v := range values {
		pool[i] = entry{v, counts[v]}
	}

	factor := make(Factor, len(L))
	var pick func(dim int) bool
	var choose func(dim, idx, prod, count, evens int, acc []int) bool

	// choose assembles one list for dimension dim from pool entries at
	// index >= idx whose product reaches L[dim].
	choose = func(dim, idx, prod, count, evens int, acc []int) bool {
		if prod == L[dim] && count > 0 {
			if !evenFirst || (count >= 2 && evens > 0) {
				factor[dim] = append([]int(nil), acc...)
				if pick(dim + 1) {
					return true
				}
			}
		}
		for i := idx; i < len(pool); i++ {
			e := &pool[i]
			if e.count == 0 || prod*e.value > L[dim] || L[dim]%(prod*e.value) != 0 {
				continue
			}
			e.count--
			ev := evens
			if e.value%2 == 0 {
				ev++
			}
			if choose(dim, i, prod*e.value, count+1, ev, append(acc, e.value)) {
				e.count++
				return true
			}
			e.count++
		}
		return false
	}

	pick = func(dim int) bool {
		if dim == len(L) {
			for _, e := range pool {
				if e.count != 0 {
					return false
				}
			}
			return true
		}
		return choose(dim, 0, 1, 0, 0, nil)
	}

	if !pick(0) {
		return nil, false
	}
	return factor, true
}

// HypercubeFactor returns the expansion factor of Theorem 33: when every
// l_i is a power of two, each dimension expands into its binary factors
// (2, 2, ..., 2). Returns false if some l_i is not a power of two.
func HypercubeFactor(L grid.Shape) (Factor, bool) {
	f := make(Factor, len(L))
	for i, l := range L {
		if l < 2 {
			return nil, false
		}
		var v []int
		for l > 1 {
			if l%2 != 0 {
				return nil, false
			}
			v = append(v, 2)
			l /= 2
		}
		f[i] = v
	}
	return f, true
}

// mapper builds the node map (i1,...,id) -> seq_{V1}(i1) ∘ ... ∘ seq_{Vd}(id),
// the per-node form of Definition 31. WithFactor writes the same map as
// digit rows; the per-node maps serve the experiments and the tests.
func mapper(f Factor, seq func(radix.Base, int) grid.Node) func(grid.Node) grid.Node {
	bases := make([]radix.Base, len(f))
	total := 0
	for i, v := range f {
		bases[i] = radix.Base(append([]int(nil), v...))
		total += len(v)
	}
	return func(n grid.Node) grid.Node {
		out := make(grid.Node, 0, total)
		for i, b := range bases {
			out = append(out, seq(b, n[i])...)
		}
		return out
	}
}

// FV returns the map F_V of Definition 31 (f-based; for guest meshes).
func FV(f Factor) func(grid.Node) grid.Node { return mapper(f, gray.F) }

// GV returns the map G_V of Definition 31 (g-based; for guest toruses
// into meshes, dilation 2).
func GV(f Factor) func(grid.Node) grid.Node { return mapper(f, gray.G) }

// HV returns the map H_V of Definition 31 (h-based; for guest toruses
// into toruses always, and into meshes when the factor is even-first).
func HV(f Factor) func(grid.Node) grid.Node { return mapper(f, gray.H) }

// WithFactor builds the full Theorem 32 embedding π ∘ map_V of g into h
// using the given, already validated, expansion factor.
func WithFactor(g, h grid.Spec, f Factor) (*embed.Embedding, error) {
	if err := f.Validate(g.Shape, h.Shape); err != nil {
		return nil, err
	}
	flat := f.Flat()
	pi, ok := perm.Find(flat, h.Shape)
	if !ok {
		return nil, fmt.Errorf("expand: no permutation aligns %v with %v", flat, h.Shape)
	}
	var (
		seq       func(grid.Node, radix.Base, int) grid.Node
		name      string
		predicted int
	)
	switch {
	case g.Kind == grid.Mesh:
		seq, name, predicted = gray.FInto, "expansion/π∘F_V", 1
	case h.Kind == grid.Torus:
		seq, name, predicted = gray.HInto, "expansion/π∘H_V", 1
	case f.EvenFirst():
		seq, name, predicted = gray.HInto, "expansion/π∘H_V", 1
	default:
		seq, name, predicted = gray.GInto, "expansion/π∘G_V", 2
	}
	// Every Theorem 32 map is a per-dimension map: guest coordinate i
	// fills its own block of V̄ positions with seq_{Vi}, and π puts V̄
	// position π[j] on host axis j. So the share of value v on axis i is
	// seq_{Vi}(v) weighted by the host weights of its block, w; digits
	// holds one sequence value at a time.
	buf := make([]int, 2*len(flat))
	w, digits := buf[:len(flat)], buf[len(flat):]
	for j, r := len(pi)-1, 1; j >= 0; j-- {
		w[pi[j]] = r
		r *= h.Shape[j]
	}
	return embed.NewRows(g, h, name, predicted, func(i, v int) int {
		off := 0
		for _, b := range f[:i] {
			off += len(b)
		}
		r := 0
		for t, x := range seq(digits[:len(f[i])], f[i], v) {
			r += x * w[off+t]
		}
		return r
	})
}

// Embed constructs the best Theorem 32 embedding of g in h, searching for
// an expansion factor (preferring an even-first factor when that upgrades
// a torus-into-mesh embedding from dilation 2 to 1). It fails if the
// shapes do not satisfy the condition of expansion.
func Embed(g, h grid.Spec) (*embed.Embedding, error) {
	if g.Size() != h.Size() {
		return nil, fmt.Errorf("expand: sizes differ: %s vs %s", g, h)
	}
	if g.Dim() >= h.Dim() {
		return nil, fmt.Errorf("expand: expansion needs dim(G) < dim(H), got %d >= %d", g.Dim(), h.Dim())
	}
	f, ok := FactorFor(g, h)
	if !ok {
		return nil, fmt.Errorf("expand: %s is not an expansion of %s (Definition 30)", h.Shape, g.Shape)
	}
	return WithFactor(g, h, f)
}

// FactorFor returns the expansion factor Embed builds g -> h with: an
// even-first factor when g is an even torus, h a mesh and one exists,
// otherwise any factor; ok is false when h is not an expansion of g. It
// builds no error message, so a dispatcher can ask before it tries.
func FactorFor(g, h grid.Spec) (Factor, bool) {
	if g.Kind == grid.Torus && h.Kind == grid.Mesh && g.Size()%2 == 0 {
		if f, ok := FindEvenFirst(g.Shape, h.Shape); ok {
			return f, true
		}
	}
	return Find(g.Shape, h.Shape)
}
