package embed

import (
	"testing"

	"torusmesh/internal/gray"
	"torusmesh/internal/grid"
	"torusmesh/internal/perm"
)

func TestTableKernelEvalBatch(t *testing.T) {
	k := Table{3, 1, 0, 2}
	src := []int{0, 1, 2, 3, 0}
	dst := make([]int, len(src))
	k.EvalBatch(dst, src)
	want := []int{3, 1, 0, 2, 3}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
}

// TestKernelsEvaluateInPlace pins the aliasing half of the Kernel
// contract for every implementation: Materialize and the measurement
// passes call EvalBatch(x, x), so evaluating a block in place must
// give exactly what evaluating it into a separate slice gives —
// including the -1 out-of-bounds sentinel and a chain stage fed it.
func TestKernelsEvaluateInPlace(t *testing.T) {
	from := grid.MustSpec(grid.Mesh, grid.Shape{4, 2, 3})
	to := grid.MustSpec(grid.Mesh, grid.Shape{3, 4, 2})
	n := from.Size()
	p := perm.Perm{2, 0, 1}
	permute := func(v grid.Node) grid.Node { return grid.Node(perm.Apply(p, v)) }
	// Shifting the permuted node's middle coordinate leaves the host
	// for every guest node whose first coordinate is 3.
	escape := nodeMapKernel{from: from, to: to, fn: func(v grid.Node) grid.Node {
		out := permute(v)
		out[1]++
		return out
	}}
	table := make(Table, n)
	for x := range table {
		table[x] = (5*x + 3) % n
	}
	kernels := []struct {
		name    string
		k       Kernel
		escapes bool
	}{
		{"Table", table, false},
		{"IndexFunc", IndexFunc(func(x int) int { return (7*x + 1) % n }), false},
		{"identityKernel", identityKernel{}, false},
		{"DigitKernel", CompileSeparable(from, to, permute), false},
		{"nodeMapKernel out of bounds", escape, true},
		{"chainKernel fed the sentinel", chainKernel{steps: []Kernel{escape, table, IndexFunc(func(x int) int { return n - 1 - x })}}, true},
	}
	// A scrambled block with repeats, so a kernel that reads src[j]
	// after writing dst[i] for some j != i sees an overwritten rank.
	src := make([]int, 2*n)
	for i := range src {
		src[i] = (11*i + 4) % n
	}
	for _, tc := range kernels {
		want := make([]int, len(src))
		in := append([]int(nil), src...)
		tc.k.EvalBatch(want, in)
		for i := range in {
			if in[i] != src[i] {
				t.Fatalf("%s: out-of-place evaluation modified src", tc.name)
			}
		}
		got := append([]int(nil), src...)
		tc.k.EvalBatch(got, got)
		sentinels := 0
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: in place rank %d -> %d, out of place -> %d", tc.name, src[i], got[i], want[i])
			}
			if want[i] == -1 {
				sentinels++
			}
		}
		if tc.escapes != (sentinels > 0) {
			t.Errorf("%s: %d sentinel images, want some: %v", tc.name, sentinels, tc.escapes)
		}
	}
}

func TestCompileSeparableMatchesMap(t *testing.T) {
	from := grid.MustSpec(grid.Torus, grid.Shape{4, 2, 3})
	to := grid.MustSpec(grid.Mesh, grid.Shape{3, 4, 2})
	p := perm.Perm{2, 0, 1}
	fn := func(n grid.Node) grid.Node { return grid.Node(perm.Apply(p, n)) }
	k := CompileSeparable(from, to, fn)
	n := from.Size()
	src := make([]int, n)
	dst := make([]int, n)
	for x := range src {
		src[x] = x
	}
	k.EvalBatch(dst, src)
	for x := 0; x < n; x++ {
		want := to.Shape.Index(fn(from.Shape.NodeAt(x)))
		if dst[x] != want {
			t.Fatalf("kernel(%d) = %d, want %d", x, dst[x], want)
		}
	}
}

func TestMaterializationAndFusion(t *testing.T) {
	old := MaterializeThreshold()
	defer SetMaterializeThreshold(old)

	a := grid.MustSpec(grid.Mesh, grid.Shape{4, 2, 3})
	b := grid.MustSpec(grid.Mesh, grid.Shape{3, 4, 2})
	e1, err := Permute(a, perm.Perm{2, 0, 1}, grid.Mesh)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Permute(e1.To, perm.Perm{1, 2, 0}, grid.Mesh)
	if err != nil {
		t.Fatal(err)
	}
	_ = b

	// Under the threshold both steps materialize; composing the
	// materialized steps must fuse them into a single Table kernel.
	SetMaterializeThreshold(1 << 20)
	if _, ok := e1.Kernel().(Table); !ok {
		t.Fatalf("step 1 kernel is %T, want Table", e1.Kernel())
	}
	if _, ok := e2.Kernel().(Table); !ok {
		t.Fatalf("step 2 kernel is %T, want Table", e2.Kernel())
	}
	c, err := Compose(e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.cachedKernel().(Table); !ok {
		t.Fatalf("composed kernel is %T, want fused Table", c.cachedKernel())
	}
	for x := 0; x < a.Size(); x++ {
		want := mapIndex(e2, mapIndex(e1, x))
		if got := mapIndex(c, x); got != want {
			t.Fatalf("fused(%d) = %d, want %d", x, got, want)
		}
	}

	// With materialization disabled the composition must chain, not
	// fuse, and still agree.
	SetMaterializeThreshold(0)
	e3, _ := Permute(a, perm.Perm{2, 0, 1}, grid.Mesh)
	e4, _ := Permute(e3.To, perm.Perm{1, 2, 0}, grid.Mesh)
	c2, err := Compose(e3, e4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Kernel().(Table); ok {
		t.Fatal("composition materialized despite a disabled threshold")
	}
	for x := 0; x < a.Size(); x++ {
		if got, want := mapIndex(c2, x), mapIndex(c, x); got != want {
			t.Fatalf("chained(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestBatchMeasurementMatchesPerNode(t *testing.T) {
	from := grid.MustSpec(grid.Torus, grid.Shape{6, 5, 4})
	to := grid.MustSpec(grid.Mesh, grid.Shape{6, 5, 4})
	e, err := NewRows(from, to, "T_L", 2, func(i, v int) int {
		return gray.TN(from.Shape[i], v) * to.Shape.Weight(i)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Dilation(), e.DilationPerNode(); got != want {
		t.Fatalf("batch dilation %d != per-node %d", got, want)
	}
	if got, want := e.AverageDilation(), e.AverageDilationPerNode(); got != want {
		t.Fatalf("batch average %v != per-node %v", got, want)
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestWithSpecsKeepsKernelAndRejectsShapeChange(t *testing.T) {
	from := grid.MustSpec(grid.Mesh, grid.Shape{2, 2, 2})
	to := grid.MustSpec(grid.Torus, grid.Shape{2, 2, 2})
	e, err := Identity(from, to)
	if err != nil {
		t.Fatal(err)
	}
	w, err := e.WithSpecs(grid.MustSpec(grid.Torus, grid.Shape{2, 2, 2}), from)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.kernel.(identityKernel); !ok {
		t.Fatalf("rewrapped kernel is %T, want identityKernel", w.kernel)
	}
	if _, err := e.WithSpecs(grid.MustSpec(grid.Mesh, grid.Shape{4, 2}), to); err == nil {
		t.Fatal("WithSpecs accepted a shape change")
	}
}

func TestVerifyBatchCatchesAliasedOutOfBounds(t *testing.T) {
	// An image out of bounds coordinate-wise whose rank would alias an
	// in-bounds host node: the kernel must not silently alias it.
	from := grid.MustSpec(grid.Mesh, grid.Shape{3, 3})
	e, err := New(from, from, "alias-oob", 0, func(n grid.Node) grid.Node {
		if n[0] == 2 && n[1] == 2 {
			return grid.Node{1, 5} // rank 8 if naively encoded: 1*3+5
		}
		return n.Clone()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(); err == nil {
		t.Fatal("Verify accepted an out-of-bounds image that aliases a valid rank")
	}
}

func TestTableReturnsFreshCopy(t *testing.T) {
	// Even with materialization disabled (so the kernel itself is the
	// table), Table() must hand out a copy the caller may mutate.
	old := MaterializeThreshold()
	SetMaterializeThreshold(0)
	defer SetMaterializeThreshold(old)
	line := grid.LineSpec(6)
	e, err := FromTable(line, line, "t", 0, []int{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	tab := e.Table()
	tab[0] = 99
	if got := mapIndex(e, 0); got != 0 {
		t.Fatalf("mutating Table() result corrupted the embedding: rank 0 maps to %d", got)
	}
}

func TestComposedOutOfBoundsReportsNotPanics(t *testing.T) {
	// A closure-built first step that maps one node out of host bounds,
	// composed with a compiled (table/digit) second step: the -1
	// sentinel must flow through the chain — and through table fusion —
	// into a Verify error rather than a negative-index panic.
	line := grid.LineSpec(6)
	bad, err := New(line, line, "oob", 0, func(n grid.Node) grid.Node {
		if n[0] == 3 {
			return grid.Node{7} // out of bounds for line(6)
		}
		return n.Clone()
	})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Permute(line, perm.Perm{0}, grid.Mesh)
	if err != nil {
		t.Fatal(err)
	}
	for _, threshold := range []int{1 << 20, 0} { // fused table and live chain
		old := MaterializeThreshold()
		SetMaterializeThreshold(threshold)
		c, err := Compose(bad, second)
		if err != nil {
			SetMaterializeThreshold(old)
			t.Fatal(err)
		}
		if err := c.Verify(); err == nil {
			SetMaterializeThreshold(old)
			t.Fatalf("threshold %d: composed out-of-bounds embedding passed Verify", threshold)
		}
		SetMaterializeThreshold(old)
	}
}

// --- Benchmarks: per-node closure walk vs the measurement routes --------
//
// The acceptance gate of the engine: on a >= 32^3-node shape Dilation
// must be at least 2x faster with at least 10x fewer allocs/op than
// the per-node path. The T_L kernel below is a carry-free digit kernel
// that the closed form proves bijective, so BenchmarkDilationBatch
// times Dilation's closed-form route (its Σ l_i axis edges, with no
// table and no edge pass) and BenchmarkVerifyBatch times Verify's
// proof route (no scan). Run with:
//
//	go test ./internal/embed -bench Dilation -benchmem

func benchEmbedding(b *testing.B) *Embedding {
	b.Helper()
	from := grid.MustSpec(grid.Torus, grid.Shape{32, 32, 32})
	to := grid.MustSpec(grid.Mesh, grid.Shape{32, 32, 32})
	e, err := NewRows(from, to, "bench/T_L", 2, func(i, v int) int {
		return gray.TN(from.Shape[i], v) * to.Shape.Weight(i)
	})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkDilationPerNode(b *testing.B) {
	e := benchEmbedding(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := e.DilationPerNode(); d != 2 {
			b.Fatalf("dilation %d", d)
		}
	}
}

func BenchmarkDilationBatch(b *testing.B) {
	e := benchEmbedding(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := e.Dilation(); d != 2 {
			b.Fatalf("dilation %d", d)
		}
	}
}

func BenchmarkVerifyBatch(b *testing.B) {
	e := benchEmbedding(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTable is T_L of torus:1024x1024 into mesh:1024x1024 as a
// FromTable embedding: 2^20 nodes with no closed form, so
// BenchmarkDilationTable times Dilation's edge pass striped across
// workers and BenchmarkVerifyTable times Verify's sequential table scan.
func benchTable(b *testing.B) *Embedding {
	b.Helper()
	from, to := grid.TorusSpec(1024, 1024), grid.MeshSpec(1024, 1024)
	tl, err := NewRows(from, to, "bench/T_L", 2, func(i, v int) int {
		return gray.TN(1024, v) * to.Shape.Weight(i)
	})
	if err != nil {
		b.Fatal(err)
	}
	e, err := FromTable(from, to, "bench/T_L table", 2, Materialize(tl.kernel, from.Size()))
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkDilationTable(b *testing.B) {
	e := benchTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := e.Dilation(); d != 2 {
			b.Fatalf("dilation %d", d)
		}
	}
}

func BenchmarkVerifyTable(b *testing.B) {
	e := benchTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPostCompose: post-composing a host relabeling onto a base
// embedding must agree with the reference composition of the two
// embeddings, whether the kernels collapse into one digit kernel, fuse
// into one table, or chain above the materialization threshold.
func TestPostCompose(t *testing.T) {
	g := grid.MustSpec(grid.Torus, grid.Shape{8, 2})
	h := grid.MustSpec(grid.Mesh, grid.Shape{4, 4})
	n := g.Size()
	// A simple rank bijection stands in for a base construction.
	tab := make([]int, n)
	for i := range tab {
		tab[i] = (i*3 + 1) % n
	}
	newBase := func() *Embedding {
		base, err := FromTable(g, h, "base", 0, tab)
		if err != nil {
			t.Fatal(err)
		}
		return base
	}
	// The relabeling under test: a rotation of the host, a pure
	// host-rank permutation.
	rot, err := Rotate(h, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	check := func(want, got *Embedding) {
		t.Helper()
		wt, gt := want.Table(), got.Table()
		for i := range wt {
			if wt[i] != gt[i] {
				t.Fatalf("table[%d] = %d, want %d", i, gt[i], wt[i])
			}
		}
		// The derived per-node Map must agree with the kernel.
		for x := 0; x < n; x++ {
			if r := got.To.Shape.Index(got.Map(g.Shape.NodeAt(x))); r != wt[x] {
				t.Fatalf("Map(%d) = %d, want %d", x, r, wt[x])
			}
		}
	}
	want, err := Compose(newBase(), rot)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PostCompose(newBase(), rot, "fused", 0)
	if err != nil {
		t.Fatal(err)
	}
	check(want, got)
	if _, ok := got.kernel.(Table); !ok {
		t.Errorf("materialized base fused to %T, want a single table", got.kernel)
	}
	// A disjoint digit-kernel base collapses with the relabeling into
	// one digit kernel, materializing nothing.
	mesh := grid.MustSpec(grid.Mesh, grid.Shape{4, 4})
	sw, err := Permute(mesh, perm.Perm{1, 0}, grid.Mesh)
	if err != nil {
		t.Fatal(err)
	}
	before := tablesMaterialized.Value()
	one, err := PostCompose(sw, rot, "collapsed", 0)
	if err != nil {
		t.Fatal(err)
	}
	if one.Digits() == nil {
		t.Fatalf("digit-kernel base post-composed to %T, want one digit kernel", one.kernel)
	}
	if d := tablesMaterialized.Value() - before; d != 0 {
		t.Errorf("collapsing post-composition materialized %d tables", d)
	}
	ref, err := Compose(sw, rot)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < n; x++ {
		if a, b := mapIndex(one, x), mapIndex(rot, mapIndex(sw, x)); a != b || mapIndex(ref, x) != b {
			t.Fatalf("collapsed(%d) = %d, want %d", x, a, b)
		}
	}
	// Above the materialization threshold the base stays a chain; the
	// composed embedding must still agree.
	old := MaterializeThreshold()
	SetMaterializeThreshold(0)
	defer SetMaterializeThreshold(old)
	fnBase, err := NewIndexed(g, h, "base", 0, func(x int) int { return tab[x] })
	if err != nil {
		t.Fatal(err)
	}
	got2, err := PostCompose(fnBase, rot, "chained", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got2.cachedKernel().(Table); ok {
		t.Error("above-threshold base should chain, not materialize")
	}
	check(want, got2)
	// A relabeling of a differently shaped host is rejected.
	other, err := Rotate(grid.MustSpec(grid.Mesh, grid.Shape{8, 2}), []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PostCompose(newBase(), other, "bad", 0); err == nil {
		t.Error("relabeling of a 8x2 host accepted for a 4x4 host")
	}
}
