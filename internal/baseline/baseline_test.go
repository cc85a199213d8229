package baseline

import (
	"math/big"
	"testing"

	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
)

func TestFitzgeraldFormulas(t *testing.T) {
	if Fitzgerald2D(4) != 4 {
		t.Error("Fitzgerald2D wrong")
	}
	// ⌊3l²/4 + l/2⌋ for l = 2, 3, 4, 5.
	cases := map[int]int{2: 4, 3: 8, 4: 14, 5: 21}
	for l, want := range cases {
		if got := Fitzgerald3D(l); got != want {
			t.Errorf("Fitzgerald3D(%d) = %d, want %d", l, got, want)
		}
	}
}

func TestHarperSequence(t *testing.T) {
	// Σ_{k=0}^{d-1} C(k,⌊k/2⌋): 1, 2, 4, 7, 13, 23, 43, ...
	want := map[int]int{1: 1, 2: 2, 3: 4, 4: 7, 5: 13, 6: 23, 7: 43}
	for d, w := range want {
		if got := HarperHypercubeLine(d); got != w {
			t.Errorf("Harper(%d) = %d, want %d", d, got, w)
		}
	}
}

// TestAppendixEpsilon reproduces the appendix: ε₀ = ε₁ = ε₂ = 1,
// ε₃ = 7/8, strictly decreasing for m >= 3, recurrence agrees with the
// direct sum, and Harper(d) = ε_{d-1}·2^{d-1}.
func TestAppendixEpsilon(t *testing.T) {
	one := big.NewRat(1, 1)
	for m := 0; m <= 2; m++ {
		if Epsilon(m).Cmp(one) != 0 {
			t.Errorf("ε_%d = %s, want 1", m, Epsilon(m))
		}
	}
	if Epsilon(3).Cmp(big.NewRat(7, 8)) != 0 {
		t.Errorf("ε₃ = %s, want 7/8", Epsilon(3))
	}
	prev := Epsilon(2)
	for m := 3; m <= 24; m++ {
		cur := Epsilon(m)
		if cur.Cmp(prev) >= 0 {
			t.Errorf("ε_%d = %s not strictly below ε_%d = %s", m, cur, m-1, prev)
		}
		if rec := epsilonByRecurrence(m); rec.Cmp(cur) != 0 {
			t.Errorf("recurrence ε_%d = %s, direct = %s", m, rec, cur)
		}
		prev = cur
	}
	for d := 1; d <= 12; d++ {
		eps := Epsilon(d - 1)
		scaled := new(big.Rat).Mul(eps, new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(d-1))))
		if !scaled.IsInt() || scaled.Num().Int64() != int64(HarperHypercubeLine(d)) {
			t.Errorf("d=%d: ε_{d-1}·2^{d-1} = %s, Harper = %d", d, scaled, HarperHypercubeLine(d))
		}
	}
}

// epsilonByRecurrence computes ε_m via the appendix recurrence
// ε_m = (ε_{m-1} + C_{m-1})/2 seeded at ε₂ = 1, where Proposition 1
// defines C_{k-1} by C(k, ⌊k/2⌋) = 2^{k-1}·C_{k-1}, i.e.
// C_{i-1} = C(i, ⌊i/2⌋)/2^{i-1}. It cross-checks Epsilon exactly as the
// appendix proof does.
func epsilonByRecurrence(m int) *big.Rat {
	if m <= 2 {
		return big.NewRat(1, 1)
	}
	eps := big.NewRat(1, 1) // ε₂
	for i := 3; i <= m; i++ {
		ck := new(big.Rat).SetFrac(
			new(big.Int).Binomial(int64(i), int64(i/2)),
			new(big.Int).Lsh(big.NewInt(1), uint(i-1)),
		)
		eps.Add(eps, ck)
		eps.Quo(eps, big.NewRat(2, 1))
	}
	return eps
}

// TestOursVsHarper reproduces the Section 5 discussion: our 2^{d-1}
// equals Harper's optimum for d <= 3, and the ratio 1/ε_{d-1} grows
// strictly for d > 3.
func TestOursVsHarper(t *testing.T) {
	for d := 1; d <= 3; d++ {
		if OurHypercubeLine(d) != HarperHypercubeLine(d) {
			t.Errorf("d=%d: ours %d != optimal %d (should be truly optimal)", d, OurHypercubeLine(d), HarperHypercubeLine(d))
		}
	}
	prevRatio := big.NewRat(1, 1)
	for d := 4; d <= 12; d++ {
		ours := big.NewRat(int64(OurHypercubeLine(d)), 1)
		opt := big.NewRat(int64(HarperHypercubeLine(d)), 1)
		ratio := new(big.Rat).Quo(ours, opt)
		if ratio.Cmp(big.NewRat(1, 1)) <= 0 {
			t.Errorf("d=%d: ratio %s should exceed 1", d, ratio)
		}
		if ratio.Cmp(prevRatio) <= 0 {
			t.Errorf("d=%d: ratio %s not increasing past %s", d, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

// reversal returns the index-reversal embedding, a second trivial
// baseline (worst-case-ish for locality).
func reversal(g, h grid.Spec) (*embed.Embedding, error) {
	n := g.Size()
	return embed.NewIndexed(g, h, "baseline/reversal", 0, func(x int) int { return n - 1 - x })
}

func TestRowMajorAndReversal(t *testing.T) {
	g := grid.RingSpec(24)
	h := grid.MeshSpec(4, 2, 3)
	rm, err := RowMajor(g, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Verify(); err != nil {
		t.Fatal(err)
	}
	// The naive baseline pays the unreflected-sequence penalty: its
	// dilation is far above the optimal 1 (h_L embedding).
	if d := rm.Dilation(); d < 2 {
		t.Errorf("row-major ring->mesh dilation = %d; expected a poor baseline >= 2", d)
	}
	rv, err := reversal(g, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := rv.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := RowMajor(grid.RingSpec(6), grid.MeshSpec(4, 2)); err == nil {
		t.Error("size mismatch accepted")
	}
}
