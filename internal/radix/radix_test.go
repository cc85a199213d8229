package radix

import (
	"testing"
	"testing/quick"

	"torusmesh/internal/grid"
)

// weights returns the weights (w0, w1, ..., wd) of the radix-L
// representation: wi = Π_{k=i+1..d} lk, so wd = 1 and w0 = n.
func weights(L Base) []int {
	d := len(L)
	w := make([]int, d+1)
	w[d] = 1
	for i := d - 1; i >= 0; i-- {
		w[i] = w[i+1] * L[i]
	}
	return w
}

// TestWeightsExample checks the worked example below Definition 7:
// for L = (4,2,3), w1 = 6, w2 = 3, w3 = 1, and w0 = n = 24.
func TestWeightsExample(t *testing.T) {
	w := weights(Base{4, 2, 3})
	want := []int{24, 6, 3, 1}
	if len(w) != len(want) {
		t.Fatalf("weights len = %d, want %d", len(w), len(want))
	}
	for i := range want {
		if w[i] != want[i] {
			t.Errorf("w[%d] = %d, want %d", i, w[i], want[i])
		}
	}
}

func TestDigitsRoundTrip(t *testing.T) {
	bases := []Base{{4, 2, 3}, {7}, {2, 2, 2, 2}, {3, 5, 2}}
	for _, L := range bases {
		n := grid.Shape(L).Size()
		for x := 0; x < n; x++ {
			d := ToDigits(L, x)
			if got := FromDigits(L, d); got != x {
				t.Fatalf("base %v: FromDigits(ToDigits(%d)) = %d", L, x, got)
			}
		}
	}
}

func TestDigitsRoundTripProperty(t *testing.T) {
	err := quick.Check(func(raw [4]uint8, xi uint16) bool {
		L := Base{int(raw[0]%5) + 2, int(raw[1]%5) + 2, int(raw[2]%5) + 2, int(raw[3]%5) + 2}
		n := grid.Shape(L).Size()
		x := int(xi) % n
		return FromDigits(L, ToDigits(L, x)) == x
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestDigitsMatchWeightsDefinition(t *testing.T) {
	// Definition 7: x̂_j = ⌊x/w_j⌋ mod l_j.
	L := Base{4, 2, 3}
	w := weights(L)
	n := grid.Shape(L).Size()
	for x := 0; x < n; x++ {
		d := ToDigits(L, x)
		for j, l := range L {
			if want := (x / w[j+1]) % l; d[j] != want {
				t.Fatalf("x=%d digit %d = %d, want %d", x, j, d[j], want)
			}
		}
	}
}

// exampleSpread is a hand-built f : [9] -> Ω(3,3) reproducing the spread
// structure of Figure 3: acyclic δm-spread 2 and δt-spread 1, cyclic
// δm-spread 3 and δt-spread 2.
var exampleSpread = Sequence{
	{0, 0}, {0, 1}, {0, 2}, {2, 2}, {2, 0}, {2, 1}, {1, 1}, {1, 0}, {1, 2},
}

func TestSpreadFigure3(t *testing.T) {
	L := Base{3, 3}
	if err := CheckBijection(L, exampleSpread); err != nil {
		t.Fatal(err)
	}
	if got := SpreadAcyclicM(L, exampleSpread); got != 2 {
		t.Errorf("acyclic δm-spread = %d, want 2", got)
	}
	if got := SpreadAcyclicT(L, exampleSpread); got != 1 {
		t.Errorf("acyclic δt-spread = %d, want 1", got)
	}
	if got := SpreadCyclicM(L, exampleSpread); got != 3 {
		t.Errorf("cyclic δm-spread = %d, want 3", got)
	}
	if got := SpreadCyclicT(L, exampleSpread); got != 2 {
		t.Errorf("cyclic δt-spread = %d, want 2", got)
	}
}

func TestSpreadDegenerate(t *testing.T) {
	L := Base{2}
	single := Sequence{{0}}
	if got := SpreadAcyclicM(L, single); got != 0 {
		t.Errorf("single-element acyclic spread = %d, want 0", got)
	}
	if got := SpreadCyclicM(L, single); got != 0 {
		t.Errorf("single-element cyclic spread = %d, want 0", got)
	}
}

func TestCheckBijectionFailures(t *testing.T) {
	L := Base{2, 2}
	if err := CheckBijection(L, Sequence{{0, 0}}); err == nil {
		t.Error("short sequence accepted")
	}
	dup := Sequence{{0, 0}, {0, 1}, {0, 0}, {1, 1}}
	if err := CheckBijection(L, dup); err == nil {
		t.Error("duplicate accepted")
	}
	oob := Sequence{{0, 0}, {0, 1}, {1, 0}, {1, 2}}
	if err := CheckBijection(L, oob); err == nil {
		t.Error("out-of-bounds accepted")
	}
	good := Sequence{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	if err := CheckBijection(L, good); err != nil {
		t.Errorf("valid bijection rejected: %v", err)
	}
}

func TestDeltaTNeverExceedsDeltaM(t *testing.T) {
	err := quick.Check(func(raw [3]uint8, ai, bi uint16) bool {
		L := Base{int(raw[0]%4) + 2, int(raw[1]%4) + 2, int(raw[2]%4) + 2}
		n := grid.Shape(L).Size()
		a := ToDigits(L, int(ai)%n)
		b := ToDigits(L, int(bi)%n)
		return DeltaT(L, a, b) <= DeltaM(L, a, b)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSequenceOf(t *testing.T) {
	L := Base{2, 3}
	s := SequenceOf(6, func(x int) grid.Node { return ToDigits(L, x) })
	if err := CheckBijection(L, s); err != nil {
		t.Fatal(err)
	}
	if got := SpreadAcyclicM(L, s); got != 3 {
		// The naive sequence wraps (0,2) -> (1,0): |1-0| + |0-2| = 3.
		t.Errorf("naive sequence δm-spread = %d, want 3", got)
	}
}
