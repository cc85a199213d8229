package embed

import (
	"testing"

	"torusmesh/internal/grid"
	"torusmesh/internal/perm"
	"torusmesh/internal/testmem"
)

var tableSink Table

// TestMaterializeBytesPerCall: materializing a kernel over a small
// guest allocates the table and a few words of bookkeeping — the
// blocks evaluate in place, with no block-sized rank scratch beside
// them. The census and the placement search materialize thousands of
// such tables.
func TestMaterializeBytesPerCall(t *testing.T) {
	from := grid.MustSpec(grid.Torus, grid.Shape{10, 6, 6})
	to := grid.MustSpec(grid.Mesh, grid.Shape{6, 10, 6})
	p := perm.Perm{1, 0, 2}
	k := CompileSeparable(from, to, func(v grid.Node) grid.Node { return grid.Node(perm.Apply(p, v)) })
	n := from.Size()
	got := testmem.BytesPerCall(200, func() { tableSink = Materialize(k, n) })
	limit := uint64(8*n + 1024)
	t.Logf("Materialize over %d ranks: %d B/call (limit %d)", n, got, limit)
	if got > limit {
		t.Errorf("Materialize over %d ranks allocates %d B/call, want <= %d", n, got, limit)
	}
}
