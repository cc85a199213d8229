// Package baseline implements the known optimal results that Section 5
// of Ma & Tao compares against, plus naive embeddings used as ablation
// baselines in the experiment harness:
//
//   - Fitzgerald [Fit74]: optimal (ℓ,ℓ)-mesh in a line costs ℓ, and
//     optimal (ℓ,ℓ,ℓ)-mesh in a line costs ⌊3ℓ²/4 + ℓ/2⌋.
//   - Ma & Narahari [MN86]: optimal (ℓ,ℓ)-torus in a ring costs ℓ.
//   - Harper [Har66]: optimal hypercube of size 2^d in a line costs
//     Σ_{k=0}^{d-1} C(k, ⌊k/2⌋), which the paper's appendix rewrites as
//     ε_{d-1}·2^{d-1} with ε₀ = ε₁ = ε₂ = 1 and ε strictly decreasing
//     from d = 3 on.
//   - Row-major: the identity-by-index embedding (the unreflected
//     sequence P), the natural naive baseline.
package baseline

import (
	"math/big"

	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
)

// Fitzgerald2D returns the optimal dilation of embedding an (l,l)-mesh
// in a line of the same size: l.
func Fitzgerald2D(l int) int { return l }

// Fitzgerald3D returns the optimal dilation of embedding an (l,l,l)-mesh
// in a line of the same size: ⌊3l²/4 + l/2⌋.
func Fitzgerald3D(l int) int { return (3*l*l + 2*l) / 4 }

// MNTorusRing returns the optimal dilation of embedding an (l,l)-torus
// in a ring of the same size: l.
func MNTorusRing(l int) int { return l }

// HarperHypercubeLine returns the optimal dilation of embedding a
// hypercube of size 2^d in a line: Σ_{k=0}^{d-1} C(k, ⌊k/2⌋).
func HarperHypercubeLine(d int) int {
	sum := 0
	for k := 0; k < d; k++ {
		sum += centralBinomial(k)
	}
	return sum
}

// centralBinomial returns C(k, ⌊k/2⌋).
func centralBinomial(k int) int {
	r := new(big.Int).Binomial(int64(k), int64(k/2))
	return int(r.Int64())
}

// Epsilon returns ε_m = (Σ_{k=0}^{m} C(k, ⌊k/2⌋)) / 2^m as an exact
// rational. The appendix proves ε₀ = ε₁ = ε₂ = 1 and ε_{m-1} > ε_m for
// all m >= 3, via the recurrence ε_m = (ε_{m-1} + C_{m-1})/2 with
// C_{m-1} = C(m, ⌊m/2⌋)/2^m.
func Epsilon(m int) *big.Rat {
	sum := big.NewInt(0)
	for k := 0; k <= m; k++ {
		sum.Add(sum, new(big.Int).Binomial(int64(k), int64(k/2)))
	}
	den := new(big.Int).Lsh(big.NewInt(1), uint(m))
	return new(big.Rat).SetFrac(sum, den)
}

// OurHypercubeLine returns the dilation of this paper's hypercube-in-line
// embedding (Theorem 48 with ℓ = 2, c = 1): 2^{d-1}.
func OurHypercubeLine(d int) int { return 1 << (d - 1) }

// RowMajor returns the identity-by-index embedding of g in h: guest node
// with row-major index x maps to host node with row-major index x. This
// is the "sequence P" baseline — correct but oblivious to proximity.
func RowMajor(g, h grid.Spec) (*embed.Embedding, error) {
	return embed.NewIndexed(g, h, "baseline/row-major", 0, func(x int) int { return x })
}
