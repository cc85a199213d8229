package place

import (
	"testing"

	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/obs"
)

// TestCandidateClosedFormsMatchEdgePass pins the searcher's closed
// forms to their oracles on every candidate the enumeration yields for
// the benchmark's search pairs and the CLI smoke pair: whenever the
// dilation closed form answers, it equals the edge pass over the
// candidate's materialized table; whenever it proves a bijection, the
// table scan finds no violation.
func TestCandidateClosedFormsMatchEdgePass(t *testing.T) {
	pairs := [][2]string{
		{"torus:8x2", "mesh:4x4"},
		{"torus:12x3", "torus:9x4"},
		{"torus:8x8x8", "mesh:16x32"},
		{"torus:16x8x8", "mesh:32x32"},
		{"mesh:32x32", "torus:8x8x16"},
		{"torus:16x16x16", "mesh:16x16x16"},
		{"torus:32x32x32", "mesh:32x32x32"},
	}
	if testing.Short() {
		pairs = pairs[:3]
	}
	for _, p := range pairs {
		g, err := grid.ParseSpec(p[0])
		if err != nil {
			t.Fatal(err)
		}
		h, err := grid.ParseSpec(p[1])
		if err != nil {
			t.Fatal(err)
		}
		cfg := cliConfig(g, h)
		if err := cfg.validate(); err != nil {
			t.Fatal(err)
		}
		vs, _ := enumerate(&cfg)
		s := newSearcher(&cfg)
		dilations, bijections := 0, 0
		for _, v := range vs {
			e, err := s.build(v)
			if err != nil {
				continue
			}
			k := e.Digits()
			if k == nil {
				continue
			}
			table := embed.Materialize(k, g.Size())
			bad := table.CheckInjection(g.Size())
			if dil, avg, ok := k.EdgeDilation(g, s.rd); ok {
				dilations++
				if bad != nil && bad.OutOfBounds {
					t.Fatalf("%s -> %s %s: closed form answered for an out-of-range image", g, h, v.key())
				}
				wantDil, wantAvg := g.EdgeDilation(table, s.rd)
				if dil != wantDil || avg != wantAvg {
					t.Fatalf("%s -> %s %s: closed form (%d, %v), edge pass (%d, %v)", g, h, v.key(), dil, avg, wantDil, wantAvg)
				}
			}
			if k.Bijective() {
				bijections++
				if bad != nil {
					t.Fatalf("%s -> %s %s: closed form proved a bijection, table scan found %+v", g, h, v.key(), *bad)
				}
			}
		}
		t.Logf("%s -> %s: %d candidates, %d closed-form dilations, %d proved bijections", g, h, len(vs), dilations, bijections)
	}
}

// TestSearchMaterializesScoredCandidatesOnly: a CLI-default search of
// the 16³ pair builds every candidate as one digit kernel, measures
// and validates it in closed form, and materializes a table only for
// the candidates it scores — none for the ones the dilation cap
// discards.
func TestSearchMaterializesScoredCandidatesOnly(t *testing.T) {
	cfg := cliConfig(grid.TorusSpec(16, 16, 16), grid.MeshSpec(16, 16, 16))
	tables := obs.Default().Counter("embed_tables_materialized_total")
	before := tables.Value()
	res, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := tables.Value() - before
	scored := res.Candidates - res.Unbuildable - res.Invalid - res.Capped - res.Pruned
	t.Logf("%d candidates, %d capped, %d pruned, %d scored, %d tables materialized", res.Candidates, res.Capped, res.Pruned, scored, got)
	if got != 6 || int(got) != scored {
		t.Errorf("search materialized %d tables for %d scored candidates, want 6", got, scored)
	}
}
