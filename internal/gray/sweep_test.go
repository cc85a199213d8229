package gray

import (
	"testing"

	"torusmesh/internal/catalog"
	"torusmesh/internal/grid"
	"torusmesh/internal/radix"
)

// TestSweepAllShapes exhaustively verifies every sequence property of
// Section 3 over every shape (ordered factorization) of every size up to
// 48: bijectivity, the exact spreads of Lemmas 11, 12, 16, 21, 23, 26
// and 27, the endpoint property of Lemma 19, and all inverses.
func TestSweepAllShapes(t *testing.T) {
	for n := 4; n <= 48; n++ {
		for _, shape := range catalog.ShapesOfSize(n, 0) {
			L := radix.Base(shape)
			verifyShape(t, L)
		}
	}
}

func verifyShape(t *testing.T, L radix.Base) {
	t.Helper()
	n := grid.Shape(L).Size()

	f := FSeq(L)
	if err := radix.CheckBijection(L, f); err != nil {
		t.Fatalf("f_%v: %v", L, err)
	}
	if got := radix.SpreadAcyclicM(L, f); got != 1 {
		t.Fatalf("f_%v: acyclic δm-spread %d (Lemma 11)", L, got)
	}
	if got := radix.SpreadAcyclicT(L, f); got != 1 {
		t.Fatalf("f_%v: acyclic δt-spread %d (Lemma 12)", L, got)
	}
	if L[0]%2 == 0 {
		end := f[n-1]
		if end[0] != L[0]-1 {
			t.Fatalf("f_%v(n-1) = %v (Lemma 19)", L, end)
		}
		for j := 1; j < len(L); j++ {
			if end[j] != 0 {
				t.Fatalf("f_%v(n-1) = %v (Lemma 19)", L, end)
			}
		}
	}

	g := GSeq(L)
	if err := radix.CheckBijection(L, g); err != nil {
		t.Fatalf("g_%v: %v", L, err)
	}
	if got := radix.SpreadCyclicM(L, g); got > 2 {
		t.Fatalf("g_%v: cyclic δm-spread %d (Lemma 16)", L, got)
	}

	h := HSeq(L)
	if err := radix.CheckBijection(L, h); err != nil {
		t.Fatalf("h_%v: %v", L, err)
	}
	if got := radix.SpreadCyclicT(L, h); got != 1 {
		t.Fatalf("h_%v: cyclic δt-spread %d (Lemma 27)", L, got)
	}
	if len(L) >= 2 && L[0]%2 == 0 {
		if got := radix.SpreadCyclicM(L, h); got != 1 {
			t.Fatalf("h_%v: cyclic δm-spread %d (Lemma 23)", L, got)
		}
	}
	if len(L) == 2 {
		r := rSeq(L)
		if err := radix.CheckBijection(L, r); err != nil {
			t.Fatalf("r_%v: %v", L, err)
		}
		if got := radix.SpreadCyclicT(L, r); got != 1 {
			t.Fatalf("r_%v: cyclic δt-spread %d (Lemma 26)", L, got)
		}
		if L[0]%2 == 0 {
			if got := radix.SpreadCyclicM(L, r); got != 1 {
				t.Fatalf("r_%v: cyclic δm-spread %d (Lemma 21)", L, got)
			}
		}
	}

	for x := 0; x < n; x++ {
		if FInv(L, f[x]) != x {
			t.Fatalf("f_%v inverse broken at %d", L, x)
		}
		if GInv(L, g[x]) != x {
			t.Fatalf("g_%v inverse broken at %d", L, x)
		}
		if HInv(L, h[x]) != x {
			t.Fatalf("h_%v inverse broken at %d", L, x)
		}
	}
}

// TestSweepLargerSpotShapes covers a few larger, higher-dimensional
// bases beyond the exhaustive range.
func TestSweepLargerSpotShapes(t *testing.T) {
	for _, L := range []radix.Base{
		{6, 5, 4, 3}, {2, 3, 4, 5}, {7, 7, 2}, {10, 10}, {3, 3, 3, 3},
		{2, 2, 2, 2, 2, 2, 2}, {12, 11}, {4, 4, 4, 4},
	} {
		verifyShape(t, L)
	}
}
