package embed

import (
	"slices"
	"testing"

	"torusmesh/internal/grid"
	"torusmesh/internal/perm"
)

// digitKernel hand-builds a kernel from its contribution rows, axis 0
// first.
func digitKernel(lengths, host []int, rows ...[]int) *DigitKernel {
	var contrib []int
	for _, r := range rows {
		contrib = append(contrib, r...)
	}
	return &DigitKernel{lengths: lengths, contrib: contrib, host: host}
}

// evalAll evaluates k rank by rank over [lo, lo+n).
func evalAll(k Kernel, lo, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + i
	}
	k.EvalBatch(out, out)
	return out
}

// TestOdometerFillMatchesEvalBatch: the division-free fill behind
// Materialize must reproduce EvalBatch for every block start and
// length — blocks that start mid-range and carry through several
// digits, length-2 axes, and contributions whose sums leave the host's
// rank range (which both forms pass through as plain integer sums).
func TestOdometerFillMatchesEvalBatch(t *testing.T) {
	kernels := map[string]*DigitKernel{
		"permutation": CompileSeparable(grid.MeshSpec(3, 2, 5), grid.MeshSpec(5, 3, 2), func(v grid.Node) grid.Node {
			return grid.Node(perm.Apply(perm.Perm{2, 0, 1}, v))
		}),
		"length-2 axes": digitKernel([]int{2, 2, 2, 3}, []int{24},
			[]int{0, 12}, []int{0, 6}, []int{0, 3}, []int{0, 1, 2}),
		"out of range": digitKernel([]int{3, 2, 4}, []int{24},
			[]int{-7, 40, 3}, []int{0, -100}, []int{5, 9, -2, 1000}),
		"one axis": digitKernel([]int{6}, []int{6}, []int{5, 0, 4, 1, 3, 2}),
	}
	for name, k := range kernels {
		n := grid.Shape(k.lengths).Size()
		want := evalAll(k, 0, n)
		for lo := 0; lo < n; lo++ {
			for size := 1; lo+size <= n; size++ {
				got := make([]int, size)
				k.fill(got, lo)
				for i := range got {
					if got[i] != want[lo+i] {
						t.Fatalf("%s: fill from %d over %d ranks: rank %d = %d, want %d", name, lo, size, lo+i, got[i], want[lo+i])
					}
				}
			}
		}
		tab := Materialize(k, n)
		for x := range tab {
			if tab[x] != want[x] {
				t.Fatalf("%s: Materialize[%d] = %d, want %d", name, x, tab[x], want[x])
			}
		}
	}
}

// TestClosedFormsRefuseCarriesAndSharedDigits: the closed forms answer
// only under the conditions that make them exact. A kernel whose host
// digits carry has edges whose lengths depend on the other
// coordinates, so the dilation closed form must refuse it even though
// it is a bijection; a kernel whose axes share a host digit is
// carry-free — its dilation closed form answers and equals the edge
// pass — but is not disjoint, so it collapses with no next stage. When
// its axes form one component, as mesh(2x2) -> line(4)'s do, the walk
// over its points proves it a bijection: one component of both guest
// axes on the line's one axis. The same walk refuses a one-component
// kernel that folds two points onto one.
func TestClosedFormsRefuseCarriesAndSharedDigits(t *testing.T) {
	// Guest 2x3 in host 3x2 by rank identity: axis 0 adds 3, which is
	// (1,1) in host digits, and axis 1 adds up to (1,0), so host digit
	// 1 reaches 2 and carries.
	g := grid.MeshSpec(2, 3)
	carry := digitKernel([]int{2, 3}, []int{3, 2}, []int{0, 3}, []int{0, 1, 2})
	if _, _, ok := carry.EdgeDilation(g, grid.MeshSpec(3, 2).NewRankDistancer()); ok {
		t.Error("dilation closed form answered for a kernel whose host digits carry")
	}
	if carry.Bijective() {
		t.Error("bijection proved for a kernel whose host digits carry")
	}
	if Materialize(carry, 6).CheckInjection(6) != nil {
		t.Fatal("the carrying kernel is meant to be a bijection")
	}

	// Guest 2x2 on the 4-line: both axes move the line's one digit.
	sq := grid.MeshSpec(2, 2)
	line := grid.LineSpec(4)
	shared := digitKernel([]int{2, 2}, []int{4}, []int{0, 2}, []int{0, 1})
	rd := line.NewRankDistancer()
	dil, avg, ok := shared.EdgeDilation(sq, rd)
	if !ok {
		t.Fatal("dilation closed form refused a carry-free kernel")
	}
	wantDil, wantAvg := sq.EdgeDilation(Materialize(shared, 4), rd)
	if dil != wantDil || avg != wantAvg {
		t.Errorf("shared-digit closed form = (%d, %v), edge pass (%d, %v)", dil, avg, wantDil, wantAvg)
	}
	if !shared.Bijective() {
		t.Error("one-component bijection not proved")
	}
	want := []Component{{Axes: []int{0, 1}, Images: [][]int{{0, 2}, {0, 1}}, HostAxes: []int{0}}}
	if got := shared.Components(); !slices.EqualFunc(got, want, equalComponents) {
		t.Errorf("components %+v, want %+v", got, want)
	}
	if shared.then(digitKernel([]int{4}, []int{4}, []int{3, 2, 1, 0})) != nil {
		t.Error("a non-disjoint first stage collapsed")
	}
	// x0 + x1 on the 4-line is one component too, but folds (1,0) and
	// (0,1) onto 1: the walk over its points refuses it.
	fold := digitKernel([]int{2, 2}, []int{4}, []int{0, 1}, []int{0, 1})
	if fold.Bijective() || fold.Components() != nil {
		t.Error("bijection proved for a one-component kernel that folds two points")
	}

	// A disjoint kernel with a repeated image along one axis is not a
	// bijection either.
	flat := digitKernel([]int{2, 2}, []int{2, 2}, []int{0, 2}, []int{0, 0})
	if flat.Bijective() {
		t.Error("bijection proved for a kernel with a repeated axis image")
	}
}

// TestBijectiveProvesComponents: a kernel whose components move
// disjoint host digits is proved a bijection from its components'
// points, a multi-axis component included, and Components reports each
// one's axes, images and host axes. A component that folds two of its
// points onto one image refuses the proof, and Verify's scan then names
// the violation CheckInjection finds first.
func TestBijectiveProvesComponents(t *testing.T) {
	// Guest 2x3x2 in host 4x3: axes 0 and 2 share host axis 0 by
	// x0 + 2·x2, and axis 1 moves host axis 1 alone.
	g, h := grid.MeshSpec(2, 3, 2), grid.MeshSpec(4, 3)
	two := digitKernel([]int{2, 3, 2}, []int{4, 3}, []int{0, 3}, []int{0, 1, 2}, []int{0, 6})
	if Materialize(two, 12).CheckInjection(12) != nil {
		t.Fatal("the two-component kernel is meant to be a bijection")
	}
	if !two.Bijective() {
		t.Fatal("two-component bijection not proved")
	}
	want := []Component{
		{Axes: []int{1}, Images: [][]int{{0, 1, 2}}, HostAxes: []int{1}},
		{Axes: []int{0, 2}, Images: [][]int{{0, 3}, {0, 6}}, HostAxes: []int{0}},
	}
	if got := two.Components(); !slices.EqualFunc(got, want, equalComponents) {
		t.Errorf("components %+v, want %+v", got, want)
	}

	// Axis 2 now repeats axis 0's offsets: (1,v,0) and (0,v,1) share an
	// image. The kernel stays carry-free, with the same two components.
	fold := digitKernel([]int{2, 3, 2}, []int{4, 3}, []int{0, 3}, []int{0, 1, 2}, []int{0, 3})
	if _, _, ok := fold.EdgeDilation(g, h.NewRankDistancer()); !ok {
		t.Fatal("the folding kernel is meant to be carry-free")
	}
	if fold.Bijective() || fold.Components() != nil {
		t.Fatal("bijection proved for a kernel with a folding component")
	}
	e, err := NewKernel(g, h, "folded component", 0, fold)
	if err != nil {
		t.Fatal(err)
	}
	if err, want := e.Verify(), wantViolation(t, e); err == nil || err.Error() != want {
		t.Errorf("Verify = %v, want %s", err, want)
	}
}

func equalComponents(a, b Component) bool {
	return slices.Equal(a.Axes, b.Axes) && slices.EqualFunc(a.Images, b.Images, slices.Equal) && slices.Equal(a.HostAxes, b.HostAxes)
}

// TestCollapseMatchesChain: digit kernels whose first stage is
// disjoint compile into one kernel that agrees with the stage-by-stage
// chain, including through a non-disjoint last stage.
func TestCollapseMatchesChain(t *testing.T) {
	old := MaterializeThreshold()
	SetMaterializeThreshold(0)
	defer SetMaterializeThreshold(old)
	a := grid.TorusSpec(4, 3, 2)
	p, err := Permute(a, perm.Perm{2, 0, 1}, grid.Torus)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Rotate(p.To, []int{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	// The last stage folds two host axes into one digit (not disjoint).
	fold := digitKernel([]int{2, 4, 3}, []int{8, 3}, []int{0, 12}, []int{0, 3, 6, 9}, []int{0, 1, 2})
	last, err := NewKernel(r.To, grid.MeshSpec(8, 3), "fold", 0, fold)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ComposeAll(p, r, last)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digits() == nil {
		t.Fatalf("three digit stages compiled to %T, want one digit kernel", c.kernel)
	}
	chain := chainKernel{steps: []Kernel{p.kernel, r.kernel, fold}}
	n := a.Size()
	want, got := evalAll(chain, 0, n), evalAll(c.kernel, 0, n)
	for x := range want {
		if got[x] != want[x] {
			t.Fatalf("collapsed(%d) = %d, chain %d", x, got[x], want[x])
		}
	}
	// A non-disjoint first stage chains instead, and an identity stage
	// drops out.
	swap, err := Permute(last.To, perm.Perm{1, 0}, grid.Mesh)
	if err != nil {
		t.Fatal(err)
	}
	chained, err := Compose(last, swap)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := chained.kernel.(chainKernel); !ok {
		t.Errorf("non-disjoint first stage composed to %T, want a chain", chained.kernel)
	}
	id, err := Identity(last.To, last.To)
	if err != nil {
		t.Fatal(err)
	}
	same, err := Compose(last, id)
	if err != nil {
		t.Fatal(err)
	}
	if same.kernel != Kernel(fold) {
		t.Errorf("identity stage kept: composed kernel is %T", same.kernel)
	}
}
