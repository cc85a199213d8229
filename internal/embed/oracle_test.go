package embed

import (
	"testing"

	"torusmesh/internal/catalog"
	"torusmesh/internal/gray"
	"torusmesh/internal/grid"
	"torusmesh/internal/perm"
)

// Per-node forms for tests: New and its decode-map-encode adapter turn
// a hand-built closure into an embedding, and CompileSeparable probes a
// closure into a digit kernel. Tests use them to build kernels no
// construction produces and as oracles for NewRows, beside the paper's
// list permutation and rotation as node maps.

// New builds an embedding from a per-node closure, evaluated through
// nodeMapKernel.
func New(from, to grid.Spec, strategy string, predicted int, fn func(grid.Node) grid.Node) (*Embedding, error) {
	return NewKernel(from, to, strategy, predicted, nodeMapKernel{from: from, to: to, fn: fn})
}

// nodeMapKernel adapts a per-node closure to the batch interface: it
// decodes each rank into a reused coordinate buffer, applies the map,
// and re-encodes. Out-of-bounds images encode as rank -1 so Verify
// reports them as such rather than aliasing them onto valid hosts.
type nodeMapKernel struct {
	from, to grid.Spec
	fn       func(grid.Node) grid.Node
}

func (k nodeMapKernel) EvalBatch(dst, src []int) {
	scratch := make(grid.Node, k.from.Dim()) // one alloc per block, not per node
	shape := k.from.Shape
	for i, x := range src {
		shape.NodeInto(scratch, x)
		img := k.fn(scratch)
		if !img.InBounds(k.to.Shape) {
			dst[i] = -1
			continue
		}
		dst[i] = k.to.Shape.Index(img)
	}
}

// CompileSeparable compiles a digit-separable node map into a
// DigitKernel by probing fn at the all-zeros guest node and at each
// single-coordinate value, Σ_i l_i + 1 evaluations in total. fn must
// map each guest coordinate independently to a fixed set of host digit
// positions; the kernel agrees with fn only under that condition.
func CompileSeparable(from, to grid.Spec, fn func(grid.Node) grid.Node) *DigitKernel {
	probe := make(grid.Node, from.Dim())
	base := to.Shape.Index(fn(probe))
	total := 0
	for _, l := range from.Shape {
		total += l
	}
	contrib := make([]int, total)
	off := 0
	for i, l := range from.Shape {
		for v := 1; v < l; v++ {
			probe[i] = v
			contrib[off+v] = to.Shape.Index(fn(probe)) - base
		}
		probe[i] = 0
		off += l
	}
	// Fold the base offset into dimension 0 so evaluation is a pure sum.
	for v := range from.Shape[0] {
		contrib[v] += base
	}
	return &DigitKernel{lengths: from.Shape.Clone(), contrib: contrib, host: to.Shape.Clone()}
}

// permuteNode is the paper's list permutation as a node map: host
// coordinate j is guest coordinate p[j].
func permuteNode(p perm.Perm) func(grid.Node) grid.Node {
	return func(n grid.Node) grid.Node { return grid.Node(perm.Apply(p, n)) }
}

// rotateNode adds offsets[j] to coordinate j modulo its length.
func rotateNode(shape grid.Shape, offsets []int) func(grid.Node) grid.Node {
	return func(n grid.Node) grid.Node {
		out := make(grid.Node, len(n))
		for j, v := range n {
			l := shape[j]
			out[j] = (v + offsets[j]%l + l) % l
		}
		return out
	}
}

// catalogSizes are the sizes the constructions' row tests walk.
var catalogSizes = []int{12, 16, 18, 24, 27}

// checkRows compares the embedding's table with the closure, node by
// node.
func checkRows(t *testing.T, e *Embedding, fn func(grid.Node) grid.Node) {
	t.Helper()
	table := e.Table()
	for x := range table {
		if want := e.To.Shape.Index(fn(e.From.Shape.NodeAt(x))); table[x] != want {
			t.Fatalf("%s -> %s (%s): rows map rank %d to %d, the closure to %d",
				e.From, e.To, e.Strategy, x, table[x], want)
		}
	}
}

// TestPermuteRotateRowsMatchClosures: Permute's and Rotate's rows equal
// their per-node definitions on every catalog shape of the walked
// sizes, under every axis permutation and every rotation, negative
// offsets included.
func TestPermuteRotateRowsMatchClosures(t *testing.T) {
	checked := 0
	for _, n := range catalogSizes {
		for _, s := range catalog.ShapesOfSize(n, 0) {
			for _, kind := range []grid.Kind{grid.Mesh, grid.Torus} {
				sp := grid.Spec{Kind: kind, Shape: s}
				for _, p := range perm.All(s.Dim()) {
					e, err := Permute(sp, p, grid.Mesh)
					if err != nil {
						t.Fatal(err)
					}
					checkRows(t, e, permuteNode(p))
					checked++
				}
				for r := range n {
					offsets := s.NodeAt(r)
					offsets[0] -= s[0] // a negative offset normalizes too
					e, err := Rotate(sp, offsets)
					if err != nil {
						t.Fatal(err)
					}
					checkRows(t, e, rotateNode(s, offsets))
					checked++
				}
			}
		}
	}
	t.Logf("checked %d permutations and rotations", checked)
}

// TestRowsMatchCompileSeparable: the row constructor stores the
// integers probing the per-node map stores, entry for entry, for the
// hand-built kernels of the package's tests: a permutation, T_L, and a
// two-axis sum that shares a host digit.
func TestRowsMatchCompileSeparable(t *testing.T) {
	tl := func(s grid.Shape) func(grid.Node) grid.Node {
		return func(n grid.Node) grid.Node {
			out := make(grid.Node, len(n))
			for i, x := range n {
				out[i] = gray.TN(s[i], x)
			}
			return out
		}
	}
	p := perm.Perm{2, 0, 1}
	torus, mesh := grid.TorusSpec(4, 2, 3), grid.MeshSpec(3, 4, 2)
	tlFrom, tlTo := grid.TorusSpec(6, 5, 4), grid.MeshSpec(6, 5, 4)
	cases := []struct {
		name     string
		from, to grid.Spec
		share    func(i, v int) int
		fn       func(grid.Node) grid.Node
	}{
		{"permutation", torus, mesh, func(i, v int) int {
			return v * mesh.Shape.Weight(p.Inverse()[i])
		}, permuteNode(p)},
		{"T_L", tlFrom, tlTo, func(i, v int) int {
			return gray.TN(tlFrom.Shape[i], v) * tlTo.Shape.Weight(i)
		}, tl(tlFrom.Shape)},
		{"two-axis sum", grid.MeshSpec(2, 2), grid.LineSpec(4), func(i, v int) int {
			return v << i
		}, func(n grid.Node) grid.Node { return grid.Node{n[0] + 2*n[1]} }},
	}
	for _, tc := range cases {
		e, err := NewRows(tc.from, tc.to, tc.name, 0, tc.share)
		if err != nil {
			t.Fatal(err)
		}
		got, want := e.Digits(), CompileSeparable(tc.from, tc.to, tc.fn)
		if got == nil {
			t.Fatalf("%s: NewRows built %T, want a digit kernel", tc.name, e.kernel)
		}
		if !grid.Shape(got.lengths).Equal(want.lengths) || !got.host.Equal(want.host) || len(got.contrib) != len(want.contrib) {
			t.Fatalf("%s: rows over %v -> %v, probe over %v -> %v", tc.name, got.lengths, got.host, want.lengths, want.host)
		}
		for j := range want.contrib {
			if got.contrib[j] != want.contrib[j] {
				t.Fatalf("%s: contribution %d = %d, the probe's %d", tc.name, j, got.contrib[j], want.contrib[j])
			}
		}
	}
}
