package gray

import (
	"testing"
	"testing/quick"

	"torusmesh/internal/grid"
	"torusmesh/internal/radix"
)

// baseFromRaw derives a small radix base from raw bytes: dimension 1..4,
// lengths 2..5. Used to drive property tests over structured inputs.
func baseFromRaw(raw []uint8, dims int) radix.Base {
	L := make(radix.Base, dims)
	for i := range L {
		L[i] = int(raw[i]%4) + 2
	}
	return L
}

// rSeq returns the full cyclic sequence r_L (L must be 2-dimensional).
func rSeq(L radix.Base) radix.Sequence {
	return radix.SequenceOf(grid.Shape(L).Size(), func(x int) grid.Node { return R(L, x) })
}

var testBases = []radix.Base{
	{4, 2, 3}, {2, 3}, {3, 2}, {5}, {2}, {2, 2}, {2, 2, 2, 2},
	{3, 3}, {4, 6}, {3, 3, 3}, {2, 2, 3}, {6, 2}, {4, 4}, {5, 3, 2},
	{2, 5}, {3, 4, 5}, {7, 2}, {2, 7},
}

// TestFSeqFigure9 pins the full table of f_L for L = (4,2,3) from
// Figure 9 of the paper.
func TestFSeqFigure9(t *testing.T) {
	want := []grid.Node{
		{0, 0, 0}, {0, 0, 1}, {0, 0, 2}, {0, 1, 2}, {0, 1, 1}, {0, 1, 0},
		{1, 1, 0}, {1, 1, 1}, {1, 1, 2}, {1, 0, 2}, {1, 0, 1}, {1, 0, 0},
		{2, 0, 0}, {2, 0, 1}, {2, 0, 2}, {2, 1, 2}, {2, 1, 1}, {2, 1, 0},
		{3, 1, 0}, {3, 1, 1}, {3, 1, 2}, {3, 0, 2}, {3, 0, 1}, {3, 0, 0},
	}
	L := radix.Base{4, 2, 3}
	for x, w := range want {
		if got := F(L, x); !got.Equal(w) {
			t.Errorf("f(%d) = %s, want %s", x, got, w)
		}
	}
}

// TestHSeqFigure9 pins the full table of h_L for L = (4,2,3) from
// Figure 9: forward pass through three 4x2 planes filling 7 nodes each
// (reversed in the middle plane), then a backward pass filling the last
// node of each plane.
func TestHSeqFigure9(t *testing.T) {
	want := []grid.Node{
		{3, 0, 0}, {2, 0, 0}, {1, 0, 0}, {0, 0, 0}, {0, 1, 0}, {1, 1, 0}, {2, 1, 0},
		{2, 1, 1}, {1, 1, 1}, {0, 1, 1}, {0, 0, 1}, {1, 0, 1}, {2, 0, 1}, {3, 0, 1},
		{3, 0, 2}, {2, 0, 2}, {1, 0, 2}, {0, 0, 2}, {0, 1, 2}, {1, 1, 2}, {2, 1, 2},
		{3, 1, 2}, {3, 1, 1}, {3, 1, 0},
	}
	L := radix.Base{4, 2, 3}
	for x, w := range want {
		if got := H(L, x); !got.Equal(w) {
			t.Errorf("h(%d) = %s, want %s", x, got, w)
		}
	}
}

// TestGSpotFigure9 checks g_L = f_L ∘ t_n values for L = (4,2,3).
func TestGSpotFigure9(t *testing.T) {
	L := radix.Base{4, 2, 3}
	cases := []struct {
		x    int
		want grid.Node
	}{
		{0, grid.Node{0, 0, 0}},  // f(0)
		{1, grid.Node{0, 0, 2}},  // f(2)
		{11, grid.Node{3, 0, 1}}, // f(22)
		{12, grid.Node{3, 0, 0}}, // f(23)
		{13, grid.Node{3, 0, 2}}, // f(21)
		{23, grid.Node{0, 0, 1}}, // f(1)
	}
	for _, c := range cases {
		if got := G(L, c.x); !got.Equal(c.want) {
			t.Errorf("g(%d) = %s, want %s", c.x, got, c.want)
		}
	}
}

// TestFigure11Sequences pins the component sequences used in Figure 11:
// f, g and h over the bases (2,2) and (2,3).
func TestFigure11Sequences(t *testing.T) {
	f22 := []grid.Node{{0, 0}, {0, 1}, {1, 1}, {1, 0}}
	for x, w := range f22 {
		if got := F(radix.Base{2, 2}, x); !got.Equal(w) {
			t.Errorf("f_(2,2)(%d) = %s, want %s", x, got, w)
		}
	}
	f23 := []grid.Node{{0, 0}, {0, 1}, {0, 2}, {1, 2}, {1, 1}, {1, 0}}
	for x, w := range f23 {
		if got := F(radix.Base{2, 3}, x); !got.Equal(w) {
			t.Errorf("f_(2,3)(%d) = %s, want %s", x, got, w)
		}
	}
	g23 := []grid.Node{{0, 0}, {0, 2}, {1, 1}, {1, 0}, {1, 2}, {0, 1}}
	for x, w := range g23 {
		if got := G(radix.Base{2, 3}, x); !got.Equal(w) {
			t.Errorf("g_(2,3)(%d) = %s, want %s", x, got, w)
		}
	}
	h23 := []grid.Node{{1, 0}, {0, 0}, {0, 1}, {0, 2}, {1, 2}, {1, 1}}
	for x, w := range h23 {
		if got := H(radix.Base{2, 3}, x); !got.Equal(w) {
			t.Errorf("h_(2,3)(%d) = %s, want %s", x, got, w)
		}
	}
}

func TestFBijectiveAndUnitSpread(t *testing.T) {
	for _, L := range testBases {
		s := FSeq(L)
		if err := radix.CheckBijection(L, s); err != nil {
			t.Errorf("f_%v: %v", L, err)
			continue
		}
		n := grid.Shape(L).Size()
		if n > 1 {
			if got := radix.SpreadAcyclicM(L, s); got != 1 {
				t.Errorf("f_%v: acyclic δm-spread = %d, want 1 (Lemma 11)", L, got)
			}
			if got := radix.SpreadAcyclicT(L, s); got != 1 {
				t.Errorf("f_%v: acyclic δt-spread = %d, want 1 (Lemma 12)", L, got)
			}
		}
	}
}

func TestFInv(t *testing.T) {
	for _, L := range testBases {
		n := grid.Shape(L).Size()
		for x := 0; x < n; x++ {
			if got := FInv(L, F(L, x)); got != x {
				t.Fatalf("f_%v: FInv(F(%d)) = %d", L, x, got)
			}
		}
	}
}

// TestLemma19 verifies f_L(n-1) = (l1-1, 0, ..., 0) when l1 is even.
func TestLemma19(t *testing.T) {
	for _, L := range testBases {
		if L[0]%2 != 0 {
			continue
		}
		n := grid.Shape(L).Size()
		got := F(L, n-1)
		if got[0] != L[0]-1 {
			t.Errorf("f_%v(n-1) = %s: first digit %d, want %d", L, got, got[0], L[0]-1)
		}
		for j := 1; j < len(L); j++ {
			if got[j] != 0 {
				t.Errorf("f_%v(n-1) = %s: digit %d nonzero (Lemma 19)", L, got, j)
			}
		}
	}
}

func TestTNCyclicSpread2(t *testing.T) {
	for n := 1; n <= 40; n++ {
		seen := make([]bool, n)
		for x := 0; x < n; x++ {
			y := TN(n, x)
			if y < 0 || y >= n || seen[y] {
				t.Fatalf("t_%d not a bijection at x=%d (y=%d)", n, x, y)
			}
			seen[y] = true
			if got := TNInv(n, y); got != x {
				t.Fatalf("t_%d: TNInv(TN(%d)) = %d", n, x, got)
			}
		}
		for x := 0; x < n; x++ {
			diff := TN(n, x) - TN(n, (x+1)%n)
			if diff < 0 {
				diff = -diff
			}
			if diff > 2 {
				t.Fatalf("t_%d: |t(%d) - t(%d)| = %d > 2", n, x, (x+1)%n, diff)
			}
		}
	}
}

func TestGCyclicSpreadAtMost2(t *testing.T) {
	for _, L := range testBases {
		s := GSeq(L)
		if err := radix.CheckBijection(L, s); err != nil {
			t.Errorf("g_%v: %v", L, err)
			continue
		}
		if got := radix.SpreadCyclicM(L, s); got > 2 {
			t.Errorf("g_%v: cyclic δm-spread = %d, want <= 2 (Lemma 16)", L, got)
		}
	}
}

func TestGInv(t *testing.T) {
	for _, L := range testBases {
		n := grid.Shape(L).Size()
		for x := 0; x < n; x++ {
			if got := GInv(L, G(L, x)); got != x {
				t.Fatalf("g_%v: GInv(G(%d)) = %d", L, x, got)
			}
		}
	}
}

func TestRSpreads(t *testing.T) {
	for _, L := range testBases {
		if len(L) != 2 {
			continue
		}
		s := rSeq(L)
		if err := radix.CheckBijection(L, s); err != nil {
			t.Errorf("r_%v: %v", L, err)
			continue
		}
		if got := radix.SpreadCyclicT(L, s); got != 1 {
			t.Errorf("r_%v: cyclic δt-spread = %d, want 1 (Lemma 26)", L, got)
		}
		if L[0]%2 == 0 {
			if got := radix.SpreadCyclicM(L, s); got != 1 {
				t.Errorf("r_%v: cyclic δm-spread = %d, want 1 (Lemma 21)", L, got)
			}
		}
	}
}

func TestRInv(t *testing.T) {
	for _, L := range testBases {
		if len(L) != 2 {
			continue
		}
		n := grid.Shape(L).Size()
		for x := 0; x < n; x++ {
			if got := RInv(L, R(L, x)); got != x {
				t.Fatalf("r_%v: RInv(R(%d)) = %d", L, x, got)
			}
		}
	}
}

func TestHSpreads(t *testing.T) {
	for _, L := range testBases {
		s := HSeq(L)
		if err := radix.CheckBijection(L, s); err != nil {
			t.Errorf("h_%v: %v", L, err)
			continue
		}
		if got := radix.SpreadCyclicT(L, s); got > 1 && grid.Shape(L).Size() > 1 {
			t.Errorf("h_%v: cyclic δt-spread = %d, want 1 (Lemma 27)", L, got)
		}
		if len(L) >= 2 && L[0]%2 == 0 {
			if got := radix.SpreadCyclicM(L, s); got != 1 {
				t.Errorf("h_%v: cyclic δm-spread = %d, want 1 (Lemma 23)", L, got)
			}
		}
	}
}

func TestHInv(t *testing.T) {
	for _, L := range testBases {
		n := grid.Shape(L).Size()
		for x := 0; x < n; x++ {
			if got := HInv(L, H(L, x)); got != x {
				t.Fatalf("h_%v: HInv(H(%d)) = %d", L, x, got)
			}
		}
	}
}

// TestPNaiveSpread verifies the ablation claim of Section 3.1: the naive
// sequence P has δm-spread greater than 1 for every base of dimension
// greater than 1 (its spread reaches max over the wrapping digits), while
// the reflected sequence f fixes it.
func TestPNaiveSpread(t *testing.T) {
	for _, L := range testBases {
		if len(L) < 2 {
			continue
		}
		s := PSeq(L)
		if got := radix.SpreadAcyclicM(L, s); got <= 1 {
			t.Errorf("P_%v: acyclic δm-spread = %d, want > 1", L, got)
		}
	}
}

func TestPropertyFGHBijectiveRandomBases(t *testing.T) {
	err := quick.Check(func(raw [4]uint8, dsel uint8) bool {
		dims := int(dsel%4) + 1
		L := baseFromRaw(raw[:], dims)
		if err := radix.CheckBijection(L, FSeq(L)); err != nil {
			return false
		}
		if err := radix.CheckBijection(L, GSeq(L)); err != nil {
			return false
		}
		if err := radix.CheckBijection(L, HSeq(L)); err != nil {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

func TestPropertySpreadsRandomBases(t *testing.T) {
	err := quick.Check(func(raw [4]uint8, dsel uint8) bool {
		dims := int(dsel%4) + 1
		L := baseFromRaw(raw[:], dims)
		n := grid.Shape(L).Size()
		if n <= 1 {
			return true
		}
		if radix.SpreadAcyclicM(L, FSeq(L)) != 1 {
			return false
		}
		if radix.SpreadCyclicM(L, GSeq(L)) > 2 {
			return false
		}
		if radix.SpreadCyclicT(L, HSeq(L)) != 1 {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

// brgc returns the classic binary reflected Gray code value x XOR (x>>1).
// For the all-twos base, F coincides with this code digit-for-digit
// (the paper's Section 2 observation that Gray codes are the radix-2
// special case of unit-spread sequences).
func brgc(x int) int { return x ^ (x >> 1) }

// brgcInv inverts brgc.
func brgcInv(g int) int {
	x := 0
	for ; g != 0; g >>= 1 {
		x ^= g
	}
	return x
}

// TestBrgcMatchesF verifies that for all-twos bases the mixed-radix
// reflected sequence coincides with the classic binary reflected Gray
// code.
func TestBrgcMatchesF(t *testing.T) {
	for d := 1; d <= 6; d++ {
		L := radix.Base(grid.Hypercube(d))
		n := 1 << d
		for x := 0; x < n; x++ {
			v := F(L, x)
			bits := 0
			for _, b := range v {
				bits = bits<<1 | b
			}
			if bits != brgc(x) {
				t.Fatalf("d=%d x=%d: f digits %v != brgc %b", d, x, v, brgc(x))
			}
			if brgcInv(brgc(x)) != x {
				t.Fatalf("brgcInv(brgc(%d)) != %d", x, x)
			}
		}
	}
}

func TestRPanicsOnWrongDimension(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("R accepted a 3-dimensional base")
		}
	}()
	R(radix.Base{2, 2, 2}, 0)
}
