package core

import (
	"testing"

	"torusmesh/internal/catalog"
	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
)

// Parity tests for the batch engine: for every ordered pair of shapes
// the dispatcher can embed, the batch measurement routes (closed forms,
// table scans, striped kernel passes) must agree with the sequential
// per-edge walks of the same kernel through Map. Map derives from the
// kernel, so whether the kernel is the paper's map is checked per
// construction family instead: each family's rows against the paper's
// per-node closure (TestBasicRowsMatchClosures here, and the row tests
// of embed, expand and reduce).

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

// TestKernelParityUnmaterialized repeats the dilation parity with
// materialization disabled, so the routes measure chained and digit
// kernels directly rather than through tables.
func TestKernelParityUnmaterialized(t *testing.T) {
	old := embed.MaterializeThreshold()
	embed.SetMaterializeThreshold(0)
	defer embed.SetMaterializeThreshold(old)
	forEachPair(t, []int{16, 24}, func(g, h grid.Spec, e *embed.Embedding) {
		if batch, perNode := e.Dilation(), e.DilationPerNode(); batch != perNode {
			t.Fatalf("%s -> %s (%s): unmaterialized batch dilation %d != per-node %d",
				g, h, e.Strategy, batch, perNode)
		}
	})
}
