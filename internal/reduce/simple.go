// Package reduce implements the paper's generalized embeddings for
// lowering dimension (Section 4.2): embedding a d-dimensional torus or
// mesh G in a c-dimensional torus or mesh H (d > c) whose shape is a
// *simple reduction* (Definition 37) or *general reduction*
// (Definition 41) of G's shape.
//
// Simple reduction groups guest coordinates and reads each group as a
// mixed-radix number (the map U_V of Definition 38); the dilation is
// max_k m_k / l_{v_k} where l_{v_k} is the largest length in group k
// (Theorem 39), doubled when a torus embeds in a mesh via the same-shape
// map T_L of Definition 35.
//
// General reduction views both graphs as grids of supernodes
// (Definition 41, Figure 12): G's supernodes are L”-grids, H's are
// S-meshes whose shape expands L”; the maps F'_S, G'_S and G”_S of
// Definition 42 achieve dilation max{s_i}, doubled for torus into mesh
// (Theorem 43).
package reduce

import (
	"fmt"
	"sort"

	"torusmesh/internal/embed"
	"torusmesh/internal/gray"
	"torusmesh/internal/grid"
	"torusmesh/internal/perm"
)

// SimpleFactor is a reduction factor V = (V1, ..., Vc) of L into M: the
// lists partition the components of L (as a multiset) and the product of
// Vk is m_k (Definition 37: L is an expansion of M with factor V). Lists
// are kept in non-increasing order, which minimizes the Theorem 39
// dilation bound.
type SimpleFactor [][]int

// Flat returns the concatenation V̄ = V1 ∘ ... ∘ Vc.
func (f SimpleFactor) Flat() grid.Shape {
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

// Validate checks that f is a simple-reduction factor of L into M.
func (f SimpleFactor) Validate(L, M grid.Shape) error {
	if len(f) != len(M) {
		return fmt.Errorf("reduce: factor has %d groups for %d host dimensions", len(f), len(M))
	}
	for k, v := range f {
		if len(v) == 0 {
			return fmt.Errorf("reduce: group %d is empty", k+1)
		}
		prod := 1
		for j, c := range v {
			if c < 2 {
				return fmt.Errorf("reduce: group %d contains %d; components must be > 1", k+1, c)
			}
			if j > 0 && v[j] > v[j-1] {
				return fmt.Errorf("reduce: group %d = %v is not non-increasing", k+1, v)
			}
			prod *= c
		}
		if prod != M[k] {
			return fmt.Errorf("reduce: group %d has product %d, want m_%d = %d", k+1, prod, k+1, M[k])
		}
	}
	if !perm.SameMultiset(f.Flat(), L) {
		return fmt.Errorf("reduce: flattened factor %v is not a permutation of %v", f.Flat(), L)
	}
	return nil
}

// Dilation returns the Theorem 39 cost max_k m_k / l_{v_k}: each group
// contributes its product divided by its largest (first) component.
func (f SimpleFactor) Dilation() int {
	max := 0
	for _, v := range f {
		prod := 1
		for _, c := range v {
			prod *= c
		}
		if d := prod / v[0]; d > max {
			max = d
		}
	}
	return max
}

// FindSimple searches for a simple-reduction factor of L into M: a
// partition of L's components into len(M) groups with the prescribed
// products. Among all valid partitions the one minimizing the Theorem 39
// dilation max_k m_k / l_{v_k} is returned, with each group in
// non-increasing order. Returns false if M is not a simple reduction
// of L.
func FindSimple(L, M grid.Shape) (SimpleFactor, bool) {
	if len(L) <= len(M) {
		return nil, false
	}
	type entry struct{ value, count int }
	counts := map[int]int{}
	for _, l := range L {
		counts[l]++
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

	const budget = 1 << 18 // cap on explored partial states
	explored := 0
	factor := make(SimpleFactor, len(M))
	var best SimpleFactor
	bestCost := -1

	var pick func(k int)
	var choose func(k, idx, prod int, acc []int)

	record := func() {
		cost := 0
		for _, v := range factor {
			prod := 1
			for _, c := range v {
				prod *= c
			}
			// Groups are assembled non-decreasing; the last element is
			// the largest.
			if d := prod / v[len(v)-1]; d > cost {
				cost = d
			}
		}
		if bestCost < 0 || cost < bestCost {
			bestCost = cost
			best = make(SimpleFactor, len(factor))
			for k, v := range factor {
				g := append([]int(nil), v...)
				// Reverse into non-increasing order.
				for i, j := 0, len(g)-1; i < j; i, j = i+1, j-1 {
					g[i], g[j] = g[j], g[i]
				}
				best[k] = g
			}
		}
	}

	choose = func(k, idx, prod int, acc []int) {
		if explored++; explored > budget {
			return
		}
		if prod == M[k] && len(acc) > 0 {
			factor[k] = acc
			pick(k + 1)
			factor[k] = nil
		}
		for i := idx; i < len(pool); i++ {
			e := &pool[i]
			if e.count == 0 || prod*e.value > M[k] || M[k]%(prod*e.value) != 0 {
				continue
			}
			e.count--
			choose(k, i, prod*e.value, append(acc, e.value))
			e.count++
		}
	}

	pick = func(k int) {
		if k == len(M) {
			for _, e := range pool {
				if e.count != 0 {
					return
				}
			}
			record()
			return
		}
		choose(k, 0, 1, nil)
	}

	pick(0)
	if bestCost < 0 {
		return nil, false
	}
	return best, true
}

// SameShape embeds a torus or mesh in a same-shape torus or mesh
// (Lemma 36): identity everywhere except torus into non-hypercube mesh,
// which uses the map T_L of Definition 35: coordinate i becomes
// t_{l_i}(x_i), so every pair of torus neighbors lands at mesh
// distance at most 2, which is optimal for non-hypercube shapes.
func SameShape(g, h grid.Spec) (*embed.Embedding, error) {
	if !g.Shape.Equal(h.Shape) {
		return nil, fmt.Errorf("reduce: SameShape requires equal shapes, got %s and %s", g.Shape, h.Shape)
	}
	if g.Kind == grid.Torus && h.Kind == grid.Mesh && !g.IsHypercube() {
		return embed.NewRows(g, h, "T_L", 2, func(i, v int) int {
			return gray.TN(g.Shape[i], v) * h.Shape.Weight(i)
		})
	}
	return embed.Identity(g, h)
}

// WithSimpleFactor builds the full Theorem 39 embedding of g in h using
// the given factor: τ permutes g's coordinates into group order, T_{V̄}
// intervenes when a torus embeds in a mesh, and the digit-grouping map
// U_V of Definition 38 collapses the groups: the coordinates of group k,
// read as a radix-Vk number, become host coordinate k.
func WithSimpleFactor(g, h grid.Spec, f SimpleFactor) (*embed.Embedding, error) {
	if err := f.Validate(g.Shape, h.Shape); err != nil {
		return nil, err
	}
	flat := f.Flat()
	tau, ok := perm.Find(g.Shape, flat)
	if !ok {
		return nil, fmt.Errorf("reduce: no permutation aligns %v with %v", g.Shape, flat)
	}
	base := f.Dilation()

	// U_V reads group k as a radix-Vk number, so V̄ position q, the t-th
	// digit of group k, weighs the product of the digits after it in
	// its group times host axis k's weight; τ puts guest axis τ[q] at
	// position q. The host rank is linear in the guest digits (in their
	// t_n images on the torus-into-mesh path): w[i] weighs guest axis i.
	w := make([]int, len(flat))
	q := len(flat)
	for k, hw := len(f)-1, 1; k >= 0; k-- {
		rw := hw
		for t := len(f[k]) - 1; t >= 0; t-- {
			q--
			w[tau[q]] = rw
			rw *= f[k][t]
		}
		hw *= h.Shape[k]
	}
	if g.Kind == grid.Torus && h.Kind == grid.Mesh {
		return embed.NewRows(g, h, "simple-reduction/U_V∘T∘τ", 2*base, func(i, v int) int {
			return gray.TN(g.Shape[i], v) * w[i]
		})
	}
	return embed.NewRows(g, h, "simple-reduction/U_V∘τ", base, func(i, v int) int {
		return v * w[i]
	})
}

// EmbedSimple constructs the Theorem 39 embedding of g in h, searching
// for a simple-reduction factor. It fails if the shapes do not satisfy
// the condition of simple reduction.
func EmbedSimple(g, h grid.Spec) (*embed.Embedding, error) {
	if g.Size() != h.Size() {
		return nil, fmt.Errorf("reduce: sizes differ: %s vs %s", g, h)
	}
	if g.Dim() <= h.Dim() {
		return nil, fmt.Errorf("reduce: reduction needs dim(G) > dim(H), got %d <= %d", g.Dim(), h.Dim())
	}
	f, ok := FindSimple(g.Shape, h.Shape)
	if !ok {
		return nil, fmt.Errorf("reduce: %s is not a simple reduction of %s (Definition 37)", h.Shape, g.Shape)
	}
	return WithSimpleFactor(g, h, f)
}
