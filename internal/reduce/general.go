package reduce

import (
	"fmt"
	"sort"

	"torusmesh/internal/embed"
	"torusmesh/internal/gray"
	"torusmesh/internal/grid"
	"torusmesh/internal/perm"
	"torusmesh/internal/radix"
)

// GeneralFactor describes a general reduction of L into M per
// Definition 41: L splits (up to permutation) into a multiplicant sublist
// L' of length c and a multiplier sublist L” of length d−c; each l”_i
// factors into the list S_i of integers > 1; and M is (up to permutation)
// [S̄ ∘ 1] × L', i.e. the first b = |S̄| components of L' each multiplied
// by one factor. The supernode reading: G is an L'-grid of L”-grid
// supernodes, H is an L'-grid of S̄-mesh supernodes, and S̄'s shape is an
// expansion of L”.
type GeneralFactor struct {
	LPrime  grid.Shape // multiplicant sublist, length c; first B entries get multiplied
	LDouble grid.Shape // multiplier sublist, length d-c
	S       [][]int    // S_i factors l''_i; components > 1
}

// FlatS returns S̄ = S1 ∘ S2 ∘ ... ∘ S_{d-c}.
func (f *GeneralFactor) FlatS() []int {
	var out []int
	for _, s := range f.S {
		out = append(out, s...)
	}
	return out
}

// B returns b, the length of S̄.
func (f *GeneralFactor) B() int { return len(f.FlatS()) }

// MaxS returns max{s_1, ..., s_b}, the Theorem 43 dilation bound.
func (f *GeneralFactor) MaxS() int {
	max := 0
	for _, s := range f.S {
		for _, v := range s {
			if v > max {
				max = v
			}
		}
	}
	return max
}

// HostShape returns [S̄ ∘ 1] × L'.
func (f *GeneralFactor) HostShape() grid.Shape {
	flatS := f.FlatS()
	out := f.LPrime.Clone()
	for j, s := range flatS {
		out[j] *= s
	}
	return out
}

// Validate checks that f is a general-reduction factor of L into M.
func (f *GeneralFactor) Validate(L, M grid.Shape) error {
	d, c := len(L), len(M)
	if !(c < d && d < 2*c) {
		return fmt.Errorf("reduce: general reduction needs c < d < 2c, got d=%d c=%d", d, c)
	}
	if len(f.LPrime) != c || len(f.LDouble) != d-c || len(f.S) != d-c {
		return fmt.Errorf("reduce: factor sublist lengths %d/%d/%d inconsistent with d=%d c=%d",
			len(f.LPrime), len(f.LDouble), len(f.S), d, c)
	}
	if !perm.SameMultiset(append(f.LPrime.Clone(), f.LDouble...), L) {
		return fmt.Errorf("reduce: L'∘L'' = %v ∘ %v is not a permutation of %v", f.LPrime, f.LDouble, L)
	}
	for i, s := range f.S {
		prod := 1
		for _, v := range s {
			if v < 2 {
				return fmt.Errorf("reduce: S_%d contains %d; factors must be > 1", i+1, v)
			}
			prod *= v
		}
		if prod != f.LDouble[i] {
			return fmt.Errorf("reduce: S_%d has product %d, want l''_%d = %d", i+1, prod, i+1, f.LDouble[i])
		}
	}
	b := f.B()
	if !(d-c < b && b <= c) {
		return fmt.Errorf("reduce: need d-c < b <= c, got b=%d d-c=%d c=%d", b, d-c, c)
	}
	if !perm.SameMultiset(f.HostShape(), M) {
		return fmt.Errorf("reduce: [S̄∘1]×L' = %v is not a permutation of %v", f.HostShape(), M)
	}
	return nil
}

// WithGeneralFactor builds the Theorem 43 embedding of g in h through
// the supernode maps of Definition 42: β ∘ F'_S ∘ α for guest meshes,
// β ∘ G'_S ∘ α for torus into torus, and β ∘ G”_S ∘ α for torus into
// mesh.
func WithGeneralFactor(g, h grid.Spec, f *GeneralFactor) (*embed.Embedding, error) {
	if err := f.Validate(g.Shape, h.Shape); err != nil {
		return nil, err
	}
	d, c := g.Dim(), h.Dim()
	alpha, ok := perm.Find(g.Shape, append(f.LPrime.Clone(), f.LDouble...))
	if !ok {
		return nil, fmt.Errorf("reduce: no permutation α aligns %v with %v∘%v", g.Shape, f.LPrime, f.LDouble)
	}
	beta, ok := perm.Find(f.HostShape(), h.Shape)
	if !ok {
		return nil, fmt.Errorf("reduce: no permutation β aligns %v with %v", f.HostShape(), h.Shape)
	}
	flatS := f.FlatS()
	b := len(flatS)

	var (
		seq      func(grid.Node, radix.Base, int) grid.Node
		name     string
		dilation int
		useT     bool
	)
	switch {
	case g.Kind == grid.Mesh:
		seq, name, dilation = gray.FInto, "general-reduction/β∘F'_S∘α", f.MaxS()
	case h.Kind == grid.Torus:
		seq, name, dilation = gray.GInto, "general-reduction/β∘G'_S∘α", f.MaxS()
	default: // torus into mesh
		seq, name, dilation, useT = gray.GInto, "general-reduction/β∘G''_S∘α", 2*f.MaxS(), true
	}

	// α puts guest axis α[q] at position q of L'∘L''. Position j < c is
	// multiplicand j: it sets supernode coordinate j (through t_{l'_j}
	// on the torus-into-mesh path), which host coordinate j scales by
	// s_j when j < b. Position c+i is multiplier i: it fills S_i's block
	// of S̄ positions with seq_{S_i}, the offset digits host coordinate
	// j adds for j < b. β puts coordinate β[m] on host axis m, so w[j]
	// weighs host coordinate j and at[i] is guest axis i's position.
	buf := make([]int, c+d+b)
	w, at, digits := buf[:c], buf[c:c+d], buf[c+d:]
	for m, r := c-1, 1; m >= 0; m-- {
		w[beta[m]] = r
		r *= h.Shape[m]
	}
	for q, i := range alpha {
		at[i] = q
	}
	return embed.NewRows(g, h, name, dilation, func(i, v int) int {
		j := at[i]
		if j < c {
			if useT {
				v = gray.TN(f.LPrime[j], v)
			}
			if j < b {
				v *= flatS[j]
			}
			return v * w[j]
		}
		off := 0
		for _, s := range f.S[:j-c] {
			off += len(s)
		}
		r := 0
		for t, x := range seq(digits[:len(f.S[j-c])], f.S[j-c], v) {
			r += x * w[off+t]
		}
		return r
	})
}

// FindGeneral searches for a general-reduction factor of L into M,
// minimizing the dilation bound max{s_i}. Returns false if M is not a
// general reduction of L.
func FindGeneral(L, M grid.Shape) (*GeneralFactor, bool) {
	d, c := len(L), len(M)
	if !(c < d && d < 2*c) {
		return nil, false
	}
	var best *GeneralFactor
	bestCost := -1

	idx := make([]int, 0, d-c)
	var subsets func(start int)
	subsets = func(start int) {
		if len(idx) == d-c {
			tryDoubleChoice(L, M, idx, &best, &bestCost)
			return
		}
		for i := start; i < d; i++ {
			idx = append(idx, i)
			subsets(i + 1)
			idx = idx[:len(idx)-1]
		}
	}
	subsets(0)
	if best == nil {
		return nil, false
	}
	return best, true
}

// tryDoubleChoice fixes which positions of L form L” and explores
// factorizations and matchings.
func tryDoubleChoice(L, M grid.Shape, doubleIdx []int, best **GeneralFactor, bestCost *int) {
	d, c := len(L), len(M)
	inDouble := make([]bool, d)
	for _, i := range doubleIdx {
		inDouble[i] = true
	}
	var lDouble, lPrimePool grid.Shape
	for i, l := range L {
		if inDouble[i] {
			lDouble = append(lDouble, l)
		} else {
			lPrimePool = append(lPrimePool, l)
		}
	}
	// Enumerate factorizations of each l'' into >= 1 factors, all > 1.
	options := make([][][]int, len(lDouble))
	for i, l := range lDouble {
		options[i] = factorizations(l, 2)
		if len(options[i]) == 0 {
			return
		}
	}
	chosen := make([][]int, len(lDouble))
	var pickFactors func(i int)
	pickFactors = func(i int) {
		if i == len(lDouble) {
			b := 0
			maxS := 0
			for _, s := range chosen {
				b += len(s)
				for _, v := range s {
					if v > maxS {
						maxS = v
					}
				}
			}
			if !(d-c < b && b <= c) {
				return
			}
			if *bestCost >= 0 && maxS >= *bestCost {
				return // cannot improve
			}
			matchFactor(M, lDouble, chosen, lPrimePool, maxS, best, bestCost)
			return
		}
		for _, s := range options[i] {
			chosen[i] = s
			pickFactors(i + 1)
		}
		chosen[i] = nil
	}
	pickFactors(0)
}

// matchFactor assigns each factor of S̄ a distinct multiplicand from the
// L' pool so that the multiset of products plus leftover multiplicands
// equals M. On success it records the factor if it beats bestCost.
func matchFactor(M, lDouble grid.Shape, S [][]int, pool grid.Shape, maxS int, best **GeneralFactor, bestCost *int) {
	var flatS []int
	for _, s := range S {
		flatS = append(flatS, s...)
	}
	b := len(flatS)
	remM := multiset(M)
	remPool := multiset(pool)
	// Stable, sorted list of distinct multiplicand values; counts live in
	// remPool so the maps are only read/written, never ranged over while
	// mutated.
	distinct := make([]int, 0, len(remPool))
	for v := range remPool {
		distinct = append(distinct, v)
	}
	sort.Ints(distinct)
	assigned := make([]int, b) // multiplicand chosen for factor j

	var assign func(j int) bool
	assign = func(j int) bool {
		if j == b {
			// Leftover multiplicands must exactly cover the rest of M.
			for v, cnt := range remPool {
				if remM[v] != cnt {
					return false
				}
			}
			for v, cnt := range remM {
				if remPool[v] != cnt {
					return false
				}
			}
			return true
		}
		s := flatS[j]
		for _, v := range distinct {
			if remPool[v] == 0 {
				continue
			}
			prod := s * v
			if remM[prod] == 0 {
				continue
			}
			remPool[v]--
			remM[prod]--
			assigned[j] = v
			if assign(j + 1) {
				remPool[v]++
				remM[prod]++
				return true
			}
			remPool[v]++
			remM[prod]++
		}
		return false
	}
	if !assign(0) {
		return
	}
	// Build L': assigned multiplicands first (in factor order), leftovers
	// after. Recompute leftovers from the pool minus assignments.
	leftover := multiset(pool)
	lPrime := make(grid.Shape, 0, len(pool))
	for _, v := range assigned {
		lPrime = append(lPrime, v)
		leftover[v]--
	}
	for _, v := range pool {
		if leftover[v] > 0 {
			lPrime = append(lPrime, v)
			leftover[v]--
		}
	}
	gf := &GeneralFactor{LPrime: lPrime, LDouble: lDouble.Clone(), S: deepCopy(S)}
	if *bestCost < 0 || maxS < *bestCost {
		*bestCost = maxS
		*best = gf
	}
}

// EmbedGeneral constructs the Theorem 43 embedding of g in h, searching
// for a general-reduction factor with minimal max{s_i}.
func EmbedGeneral(g, h grid.Spec) (*embed.Embedding, error) {
	if g.Size() != h.Size() {
		return nil, fmt.Errorf("reduce: sizes differ: %s vs %s", g, h)
	}
	f, ok := FindGeneral(g.Shape, h.Shape)
	if !ok {
		return nil, fmt.Errorf("reduce: %s is not a general reduction of %s (Definition 41)", h.Shape, g.Shape)
	}
	return WithGeneralFactor(g, h, f)
}

// Reduction embeds g in h by simple reduction when one applies (its
// dilation bound is usually tighter), else by general reduction; ok is
// false when neither does. It builds no error message, so a dispatcher
// can try it on pairs no reduction covers.
func Reduction(g, h grid.Spec) (*embed.Embedding, bool) {
	if g.Size() != h.Size() {
		return nil, false
	}
	if g.Dim() > h.Dim() {
		if f, ok := FindSimple(g.Shape, h.Shape); ok {
			if e, err := WithSimpleFactor(g, h, f); err == nil {
				return e, true
			}
		}
	}
	if f, ok := FindGeneral(g.Shape, h.Shape); ok {
		if e, err := WithGeneralFactor(g, h, f); err == nil {
			return e, true
		}
	}
	return nil, false
}

// factorizations enumerates all multisets of integers >= minF whose
// product is v, each as a non-decreasing slice. v itself is included as
// the one-element factorization.
func factorizations(v, minF int) [][]int {
	var out [][]int
	if v >= minF {
		out = append(out, []int{v})
	}
	for f := minF; f*f <= v; f++ {
		if v%f != 0 {
			continue
		}
		for _, rest := range factorizations(v/f, f) {
			out = append(out, append([]int{f}, rest...))
		}
	}
	return out
}

func multiset(vals []int) map[int]int {
	m := make(map[int]int, len(vals))
	for _, v := range vals {
		m[v]++
	}
	return m
}

func deepCopy(s [][]int) [][]int {
	out := make([][]int, len(s))
	for i, v := range s {
		out[i] = append([]int(nil), v...)
	}
	return out
}
