package embed_test

import (
	"testing"

	"torusmesh/internal/catalog"
	"torusmesh/internal/core"
	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
)

// TestClosedFormsMatchEdgePass pins the closed forms to their oracles
// over every ordered pair of the census spaces at four sizes: whenever
// the dilation closed form answers, it equals the edge pass over the
// materialized table, bit for bit; whenever the closed form proves a
// bijection, the table scan finds no violation. At size 360 nearly
// every construction must compile to one digit kernel.
func TestClosedFormsMatchEdgePass(t *testing.T) {
	for _, n := range []int{36, 64, 120, 360} {
		var specs []grid.Spec
		for _, s := range catalog.CanonicalShapesOfSize(n, 4) {
			specs = append(specs, grid.Spec{Kind: grid.Mesh, Shape: s}, grid.Spec{Kind: grid.Torus, Shape: s})
		}
		pairs, digits, dilations, bijections := 0, 0, 0, 0
		for _, h := range specs {
			rd := h.NewRankDistancer()
			for _, g := range specs {
				pairs++
				e, err := core.Embed(g, h)
				if err != nil {
					t.Fatalf("%s -> %s: %v", g, h, err)
				}
				k := e.Digits()
				if k == nil {
					continue
				}
				digits++
				table := e.Kernel().(embed.Table)
				bad := table.CheckInjection(n)
				if dil, avg, ok := k.EdgeDilation(g, rd); ok {
					dilations++
					if bad != nil && bad.OutOfBounds {
						t.Fatalf("%s -> %s: closed form answered for a table with out-of-range image %+v", g, h, *bad)
					}
					wantDil, wantAvg := g.EdgeDilation(table, rd)
					if dil != wantDil || avg != wantAvg {
						t.Fatalf("%s -> %s: closed form (%d, %v), edge pass (%d, %v)", g, h, dil, avg, wantDil, wantAvg)
					}
				}
				if k.Bijective() {
					bijections++
					if bad != nil {
						t.Fatalf("%s -> %s: closed form proved a bijection, table scan found %+v", g, h, *bad)
					}
				}
			}
		}
		t.Logf("size %d: %d pairs, %d one digit kernel, %d closed-form dilations, %d proved bijections",
			n, pairs, digits, dilations, bijections)
		if n == 360 && digits < 8300 {
			t.Errorf("size 360: %d of %d constructions compile to one digit kernel, want >= 8300", digits, pairs)
		}
	}
}

// TestMidRotatedPrimeRefinementIsOneKernel: the prime refinement of
// the 32³ pair around a rotated intermediate — expansion, rotation,
// reduction — compiles to a single digit kernel whose closed forms
// answer.
func TestMidRotatedPrimeRefinementIsOneKernel(t *testing.T) {
	g, h := grid.TorusSpec(32, 32, 32), grid.MeshSpec(32, 32, 32)
	mid := core.PrimeIntermediate(g, h)
	rot := make([]int, mid.Dim())
	rot[0] = 1
	e, err := core.EmbedViaPrimesMid(g, h, func(m grid.Spec) (*embed.Embedding, error) {
		return embed.Rotate(m, rot)
	})
	if err != nil {
		t.Fatal(err)
	}
	k := e.Digits()
	if k == nil {
		t.Fatalf("%s does not compile to one digit kernel", e.Strategy)
	}
	rd := h.NewRankDistancer()
	dil, avg, ok := k.EdgeDilation(g, rd)
	if !ok {
		t.Fatal("dilation closed form refused the refinement")
	}
	wantDil, wantAvg := g.EdgeDilation(e.Kernel().(embed.Table), rd)
	if dil != wantDil || avg != wantAvg {
		t.Errorf("closed form (%d, %v), edge pass (%d, %v)", dil, avg, wantDil, wantAvg)
	}
}
