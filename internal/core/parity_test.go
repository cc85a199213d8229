package core

import (
	"testing"

	"torusmesh/internal/catalog"
	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
)

// Parity tests for the batch engine: for every ordered pair of shapes
// the dispatcher can embed, the compiled kernel (tables, digit kernels,
// chains) must agree exactly with the per-node Map closure, and the
// batch measurement paths must agree with the sequential per-node
// walks. This pins down the digit-separability assumption every
// producer relies on when registering with NewSeparable.

// forEachPair runs fn over every ordered (shape, kind) pair of the
// given sizes, using the full (non-canonical) shape list so the π glue
// and kind re-wrapping paths are exercised.
func forEachPair(t *testing.T, sizes []int, fn func(g, h grid.Spec, e *embed.Embedding)) {
	t.Helper()
	kinds := []grid.Kind{grid.Mesh, grid.Torus}
	checked := 0
	for _, n := range sizes {
		shapes := catalog.ShapesOfSize(n, 0)
		for _, gs := range shapes {
			for _, hs := range shapes {
				for _, gk := range kinds {
					for _, hk := range kinds {
						g := grid.Spec{Kind: gk, Shape: gs}
						h := grid.Spec{Kind: hk, Shape: hs}
						e, err := Embed(g, h)
						if err != nil {
							t.Fatalf("%s -> %s: %v", g, h, err)
						}
						fn(g, h, e)
						checked++
					}
				}
			}
		}
	}
	t.Logf("parity checked %d embeddings", checked)
}

func TestKernelMatchesMapAcrossCatalog(t *testing.T) {
	forEachPair(t, []int{12, 16, 18, 24, 27}, func(g, h grid.Spec, e *embed.Embedding) {
		table := e.Table() // batch path: compiled kernel, parallel fill
		n := g.Size()
		for x := 0; x < n; x++ {
			want := h.Shape.Index(e.Map(g.Shape.NodeAt(x)))
			if table[x] != want {
				t.Fatalf("%s -> %s (%s): kernel maps rank %d to %d, Map to %d",
					g, h, e.Strategy, x, table[x], want)
			}
		}
	})
}

func TestBatchMeasurementParityAcrossCatalog(t *testing.T) {
	forEachPair(t, []int{12, 20, 30}, func(g, h grid.Spec, e *embed.Embedding) {
		if batch, perNode := e.Dilation(), e.DilationPerNode(); batch != perNode {
			t.Fatalf("%s -> %s (%s): batch dilation %d != per-node %d",
				g, h, e.Strategy, batch, perNode)
		}
		if batch, perNode := e.AverageDilation(), e.AverageDilationPerNode(); batch != perNode {
			t.Fatalf("%s -> %s (%s): batch average %v != per-node %v",
				g, h, e.Strategy, batch, perNode)
		}
		if err := e.Verify(); err != nil {
			t.Fatalf("%s -> %s (%s): batch verify: %v", g, h, e.Strategy, err)
		}
	})
}

// TestKernelParityUnmaterialized repeats the map parity with
// materialization disabled, so chained and digit kernels are exercised
// directly rather than through fused tables.
func TestKernelParityUnmaterialized(t *testing.T) {
	old := embed.MaterializeThreshold()
	embed.SetMaterializeThreshold(0)
	defer embed.SetMaterializeThreshold(old)
	forEachPair(t, []int{16, 24}, func(g, h grid.Spec, e *embed.Embedding) {
		n := g.Size()
		src := make([]int, n)
		dst := make([]int, n)
		for x := range src {
			src[x] = x
		}
		e.EvalBatch(dst, src)
		for x := 0; x < n; x++ {
			want := h.Shape.Index(e.Map(g.Shape.NodeAt(x)))
			if dst[x] != want {
				t.Fatalf("%s -> %s (%s): unmaterialized kernel maps %d to %d, Map to %d",
					g, h, e.Strategy, x, dst[x], want)
			}
		}
		if batch, perNode := e.Dilation(), e.DilationPerNode(); batch != perNode {
			t.Fatalf("%s -> %s (%s): unmaterialized batch dilation %d != per-node %d",
				g, h, e.Strategy, batch, perNode)
		}
	})
}
