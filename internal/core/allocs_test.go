package core

import (
	"testing"

	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
)

// TestConstructionAllocs gates the allocations of one construction,
// measured without materializing its table: every family writes its
// digit rows with one allocation-free sequence evaluation per (axis,
// value), so what a construction allocates is its bookkeeping (factor
// searches, permutations, strategy names) and one contribution table
// per stage. The 32³ prime refinement is a 15-axis intermediate; the
// torus(8x15) -> mesh(4x5x6) refinement is the size of the
// placement-census constructions, which build thousands per pass; the
// dispatcher asks whether an expansion applies before trying one, so
// the pair builds no error message it would discard. Measured at 29
// and 37 allocs/op with Go 1.24 on linux/amd64; the limits leave a
// little room above that, less than the 5 allocations of a discarded
// message.
func TestConstructionAllocs(t *testing.T) {
	cases := []struct {
		name  string
		g, h  grid.Spec
		build func(g, h grid.Spec) (*embed.Embedding, error)
		limit float64
	}{
		{"EmbedViaPrimes", grid.TorusSpec(32, 32, 32), grid.MeshSpec(32, 32, 32), EmbedViaPrimes, 36},
		{"Embed", grid.TorusSpec(8, 15), grid.MeshSpec(4, 5, 6), Embed, 40},
	}
	for _, tc := range cases {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := tc.build(tc.g, tc.h); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s(%s, %s): %.0f allocs/op (limit %.0f)", tc.name, tc.g, tc.h, allocs, tc.limit)
		if allocs > tc.limit {
			t.Errorf("%s(%s, %s) allocates %.0f objects/op, want <= %.0f", tc.name, tc.g, tc.h, allocs, tc.limit)
		}
	}
}
