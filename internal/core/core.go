// Package core is the top-level embedding engine: given any guest and
// host torus/mesh of the same size, it selects and constructs the
// appropriate embedding from Ma & Tao's toolbox:
//
//   - basic embeddings (guest dimension 1): f_L for lines (Theorem 13),
//     h_L / π∘h_{L*} / g_L for rings (Theorems 17, 24, 28);
//   - same dimension: coordinate permutation plus identity or T_L
//     (Lemma 36);
//   - increasing dimension: expansion embeddings F_V/G_V/H_V
//     (Theorem 32), falling back to the square-graph construction of
//     Theorem 53 when the shapes do not satisfy the condition of
//     expansion;
//   - lowering dimension: simple then general reduction (Theorems 39
//     and 43), falling back to the square-graph chain of Theorem 51.
//
// Hypercubes are both toruses and meshes; the dispatcher exploits this by
// treating a hypercube guest as a mesh and a hypercube host as a torus,
// which always yields the cheaper construction (Theorems 33 and 39's
// corollaries).
package core

import (
	"fmt"
	"math/bits"
	"slices"

	"torusmesh/internal/embed"
	"torusmesh/internal/expand"
	"torusmesh/internal/gray"
	"torusmesh/internal/grid"
	"torusmesh/internal/perm"
	"torusmesh/internal/radix"
	"torusmesh/internal/reduce"
	"torusmesh/internal/square"
)

// Embed constructs an embedding of g in h with the smallest dilation
// guarantee the paper's constructions offer for the pair. It returns an
// error when the sizes differ or none of the paper's conditions
// (expansion, reduction, squareness, matching shapes) hold.
func Embed(g, h grid.Spec) (*embed.Embedding, error) {
	if err := checkPair(g, h); err != nil {
		return nil, err
	}
	// A hypercube is simultaneously a torus and a mesh: choose the
	// interpretation that yields the cheaper construction.
	eg, eh := g, h
	if eg.Shape.IsHypercube() {
		eg.Kind = grid.Mesh
	}
	if eh.Shape.IsHypercube() {
		eh.Kind = grid.Torus
	}
	e, err := dispatch(eg, eh)
	if err != nil {
		return nil, err
	}
	if eg.Kind == g.Kind && eh.Kind == h.Kind {
		return e, nil
	}
	// Re-wrap with the caller's kinds (same shapes, same adjacency),
	// keeping the compiled kernel.
	return e.WithSpecs(g, h)
}

func dispatch(g, h grid.Spec) (*embed.Embedding, error) {
	d, c := g.Dim(), h.Dim()
	switch {
	case d == 1:
		return embedBasic(g, h)
	case d == c:
		if e, ok := embedSameDimension(g, h); ok {
			return e, nil
		}
		return embedViaPrimeRefinement(g, h, nil)
	case d < c:
		if f, ok := expand.FactorFor(g, h); ok {
			if e, err := expand.WithFactor(g, h, f); err == nil {
				return e, nil
			}
		}
		if g.Shape.IsSquare() && h.Shape.IsSquare() {
			return square.Embed(g, h)
		}
		return embedViaPrimeRefinement(g, h, nil)
	default:
		if e, ok := reduce.Reduction(g, h); ok {
			return e, nil
		}
		if g.Shape.IsSquare() && h.Shape.IsSquare() {
			return square.Embed(g, h)
		}
		return embedViaPrimeRefinement(g, h, nil)
	}
}

// EmbedViaPrimes always routes through the all-primes refinement, even
// for pairs a direct construction covers. Its dilation bound is usually
// weaker than Embed's pick, but the route through the prime-factor
// intermediate distributes guest edges over host dimensions differently,
// so the placement search enumerates it as an alternative strategy and
// lets the congestion objective decide. Sizes must match; it fails only
// when the refinement's own conditions do (never for valid same-size
// pairs).
func EmbedViaPrimes(g, h grid.Spec) (*embed.Embedding, error) {
	return EmbedViaPrimesMid(g, h, nil)
}

// MidHook transforms the prime refinement's intermediate stage: given
// the all-primes intermediate spec, it returns an embedding of the
// intermediate into itself (a node relabeling, e.g. embed.Rotate) that
// EmbedViaPrimesMid splices between the refinement's two stages. The
// relabeling changes which intermediate nodes the reduction coarsens
// together, so the composite is a genuinely new embedding of the pair —
// the placement search enumerates intermediate rotations this way.
type MidHook func(mid grid.Spec) (*embed.Embedding, error)

// PrimeIntermediate returns the intermediate spec the prime refinement
// routes g -> h through: the all-primes shape of the size, a torus only
// when both endpoints are toruses. Candidate generators use it to
// enumerate intermediate-stage relabelings without rebuilding the
// refinement.
func PrimeIntermediate(g, h grid.Spec) grid.Spec {
	midKind := grid.Mesh
	if g.Kind == grid.Torus && h.Kind == grid.Torus {
		midKind = grid.Torus
	}
	return grid.Spec{Kind: midKind, Shape: primeShape(g.Size())}
}

// EmbedViaPrimesMid is EmbedViaPrimes with a hook applied to the
// intermediate stage: the composite becomes up ∘ hook(mid) ∘ down. A
// nil hook is EmbedViaPrimes. The hook's embedding must map the
// intermediate spec onto itself.
func EmbedViaPrimesMid(g, h grid.Spec, hook MidHook) (*embed.Embedding, error) {
	if err := checkPair(g, h); err != nil {
		return nil, err
	}
	return embedViaPrimeRefinement(g, h, hook)
}

// checkPair rejects a pair with an invalid shape or with sizes that
// differ: what every entry point checks before it constructs.
func checkPair(g, h grid.Spec) error {
	if err := g.Shape.Validate(); err != nil {
		return fmt.Errorf("core: guest: %v", err)
	}
	if err := h.Shape.Validate(); err != nil {
		return fmt.Errorf("core: host: %v", err)
	}
	if g.Size() != h.Size() {
		return fmt.Errorf("core: guest %s has %d nodes but host %s has %d; the paper studies same-size embeddings",
			g, g.Size(), h, h.Size())
	}
	return nil
}

// embedViaPrimeRefinement is an extension beyond the paper's explicit
// cases, built purely from its tools: every shape is an expansion of the
// all-primes shape of its size, so G expands into the prime shape X
// (Theorem 32) and X simple-reduces onto H (Theorem 39). This covers
// every same-size pair the explicit conditions miss — e.g. the
// equal-dimension pair (8,2) -> (4,4) — at the cost of a weaker dilation
// bound (the product of the two steps' guarantees). The intermediate is
// a torus only when both endpoints are toruses, so the torus-into-mesh
// penalty is paid at most once. A non-nil hook relabels the
// intermediate between the two steps (EmbedViaPrimesMid).
func embedViaPrimeRefinement(g, h grid.Spec, hook MidHook) (*embed.Embedding, error) {
	mid := PrimeIntermediate(g, h)

	up, err := refineToPrimes(g, mid)
	if err != nil {
		return nil, err
	}
	steps := []*embed.Embedding{up}
	if hook != nil {
		m, err := hook(mid)
		if err != nil {
			return nil, err
		}
		if !m.From.Shape.Equal(mid.Shape) || !m.To.Shape.Equal(mid.Shape) {
			return nil, fmt.Errorf("core: mid hook must map %s onto itself, got %s -> %s", mid, m.From, m.To)
		}
		steps = append(steps, m)
	}
	down, err := coarsenFromPrimes(mid, h)
	if err != nil {
		return nil, err
	}
	steps = append(steps, down)
	e, err := embed.ComposeAll(steps...)
	if err != nil {
		return nil, err
	}
	chain := up.Strategy
	if hook != nil {
		chain += " ∘ " + steps[1].Strategy
	}
	chain += " ∘ " + down.Strategy
	e.Strategy = "prime-refinement[" + chain + "]"
	return e, nil
}

// refineToPrimes embeds g in the all-primes graph mid (expansion, or a
// permutation when g is already a prime shape).
func refineToPrimes(g, mid grid.Spec) (*embed.Embedding, error) {
	if g.Dim() == mid.Dim() {
		e, ok, err := permuteOnto(g, mid)
		if !ok {
			return nil, fmt.Errorf("core: internal error: %v is not a permutation of the prime shape %v", g.Shape, mid.Shape)
		}
		return e, err
	}
	factor := make(expand.Factor, g.Dim())
	primes := make([]int, 0, mid.Dim())
	for i, l := range g.Shape {
		start := len(primes)
		primes = appendPrimeFactors(primes, l)
		f := primes[start:len(primes):len(primes)]
		// Put a 2 first when present so H_V applies to even toruses.
		for j, p := range f {
			if p%2 == 0 {
				f[0], f[j] = f[j], f[0]
				break
			}
		}
		factor[i] = f
	}
	return expand.WithFactor(g, mid, factor)
}

// coarsenFromPrimes embeds the all-primes graph mid in h (simple
// reduction, or a permutation when h is already a prime shape).
func coarsenFromPrimes(mid, h grid.Spec) (*embed.Embedding, error) {
	if mid.Dim() == h.Dim() {
		e, ok, err := permuteOnto(mid, h)
		if !ok {
			return nil, fmt.Errorf("core: internal error: prime shape %v is not a permutation of %v", mid.Shape, h.Shape)
		}
		return e, err
	}
	sf := make(reduce.SimpleFactor, h.Dim())
	primes := make([]int, 0, mid.Dim())
	for k, m := range h.Shape {
		// Prime factors come non-increasing, which minimizes the
		// Theorem 39 bound m_k / l_{v_k}.
		start := len(primes)
		primes = appendPrimeFactors(primes, m)
		sf[k] = primes[start:len(primes):len(primes)]
	}
	return reduce.WithSimpleFactor(mid, h, sf)
}

// primeShape returns the shape consisting of all prime factors of n in
// non-increasing order.
func primeShape(n int) grid.Shape {
	return grid.Shape(primeFactors(n))
}

// primeFactors returns the prime factorization of n with multiplicity,
// in non-increasing order (shape convention: largest lengths first).
func primeFactors(n int) []int {
	return appendPrimeFactors(make([]int, 0, bits.Len(uint(n))), n)
}

// appendPrimeFactors appends the prime factorization of n, in
// non-increasing order, to out.
func appendPrimeFactors(out []int, n int) []int {
	start := len(out)
	for p := 2; p*p <= n; p++ {
		for n%p == 0 {
			out = append(out, p)
			n /= p
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	slices.Reverse(out[start:])
	return out
}

// embedBasic handles guests of dimension 1 (lines and rings), Section 3.
// The guest's one axis carries the whole host rank: the share of value
// v is the host rank of the sequence's v-th node.
func embedBasic(g, h grid.Spec) (*embed.Embedding, error) {
	L := radix.Base(h.Shape)
	n := g.Size()
	var (
		seq       func(grid.Node, radix.Base, int) grid.Node
		name      string
		predicted int
	)
	switch {
	case g.Kind == grid.Mesh:
		// A line embeds anywhere with unit dilation (Theorem 13).
		seq, name, predicted = gray.FInto, "basic/f_L", 1
	case h.Kind == grid.Torus:
		// Theorem 28: a ring embeds in any torus with unit dilation.
		seq, name, predicted = gray.HInto, "basic/h_L", 1
	case n%2 == 0 && h.Dim() >= 2:
		// Theorem 24: even ring into a mesh of dimension >= 2 with unit
		// dilation, permuting an even length to the front.
		evenIdx := -1
		for i, l := range h.Shape {
			if l%2 == 0 {
				evenIdx = i
				break
			}
		}
		lStar := h.Shape.Clone()
		lStar[0], lStar[evenIdx] = lStar[evenIdx], lStar[0]
		pi, ok := perm.Find(lStar, h.Shape)
		if !ok {
			return nil, fmt.Errorf("core: internal error building L* for %s", h)
		}
		node := make(grid.Node, len(lStar))
		return embed.NewRows(g, h, "basic/π∘h_L*", 1, func(_, v int) int {
			gray.HInto(node, lStar, v)
			r := 0
			for j, src := range pi {
				r = r*h.Shape[j] + node[src]
			}
			return r
		})
	default:
		// Theorem 17: dilation 2, optimal for odd meshes and lines of
		// size > 2.
		seq, name, predicted = gray.GInto, "basic/g_L", 2
	}
	node := make(grid.Node, len(L))
	return embed.NewRows(g, h, name, predicted, func(_, v int) int {
		return h.Shape.Index(seq(node, L, v))
	})
}

// embedSameDimension handles d == c: the shapes must be permutations of
// each other (the paper's same-shape case composed with the π glue). ok
// is false when they are not; the dispatcher then refines through the
// primes, so no error message is built.
func embedSameDimension(g, h grid.Spec) (*embed.Embedding, bool) {
	e, ok, err := permuteOnto(g, h)
	if !ok || err != nil {
		return nil, false
	}
	if g.Kind == grid.Torus && h.Kind == grid.Mesh && !g.IsHypercube() {
		e.Strategy = "same-dim/T_L∘π"
		e.Predicted = 2
	} else {
		e.Strategy = "same-dim/π"
		e.Predicted = 1
	}
	return e, true
}

// permuteOnto embeds g in h when h's shape is a permutation of g's: the
// axis permutation π, then the same-shape embedding of Lemma 36 (the
// identity, or T_L from a torus into a mesh). ok is false, and no error
// is built, when the shapes are not permutations of each other.
func permuteOnto(g, h grid.Spec) (e *embed.Embedding, ok bool, err error) {
	pi, ok := perm.Find(g.Shape, h.Shape)
	if !ok {
		return nil, false, nil
	}
	p, err := embed.Permute(g, pi, g.Kind)
	if err != nil {
		return nil, true, err
	}
	same, err := reduce.SameShape(p.To, h)
	if err != nil {
		return nil, true, err
	}
	e, err = embed.Compose(p, same)
	return e, true, err
}

// Predicted returns the dilation guarantee Embed attaches to the pair.
// It reads it off the embedding Embed constructs, so it costs what
// Embed does.
func Predicted(g, h grid.Spec) (int, error) {
	e, err := Embed(g, h)
	if err != nil {
		return 0, err
	}
	return e.Predicted, nil
}
