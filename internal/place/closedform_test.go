package place

import (
	"reflect"
	"slices"
	"testing"

	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/netsim"
	"torusmesh/internal/obs"
	"torusmesh/internal/taskgraph"
)

// searchPairs returns the benchmark's search pairs, whose first pair
// is also the CLI smoke pair; -short keeps the first three.
func searchPairs(t *testing.T) [][2]grid.Spec {
	t.Helper()
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
	var out [][2]grid.Spec
	for _, p := range pairs {
		g, err := grid.ParseSpec(p[0])
		if err != nil {
			t.Fatal(err)
		}
		h, err := grid.ParseSpec(p[1])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]grid.Spec{g, h})
	}
	return out
}

// TestBaselineMatchesSearch: Baseline scores exactly the candidate a
// Search of the same config reports as its Baseline, on the
// benchmark's search pairs with annealing off and on, without
// enumerating the candidate space; BaselineEmbedding is the embedding
// it scores, rank for rank the reference build of variant 0.
func TestBaselineMatchesSearch(t *testing.T) {
	for _, p := range searchPairs(t) {
		cfg := cliConfig(p[0], p[1])
		e, err := BaselineEmbedding(cfg)
		if err != nil {
			t.Fatalf("%s -> %s: %v", p[0], p[1], err)
		}
		for _, anneal := range []bool{false, true} {
			cfg.Anneal = anneal
			got, err := Baseline(cfg)
			if err != nil {
				t.Fatalf("%s -> %s anneal=%t: %v", p[0], p[1], anneal, err)
			}
			res, err := Search(cfg)
			if err != nil {
				t.Fatalf("%s -> %s anneal=%t: %v", p[0], p[1], anneal, err)
			}
			if !reflect.DeepEqual(got, res.Baseline) {
				t.Errorf("%s -> %s anneal=%t: Baseline %+v, Search baseline %+v", p[0], p[1], anneal, got, res.Baseline)
			}
			if got.EmbedStrategy != e.Strategy {
				t.Errorf("%s -> %s: Baseline scores %q, BaselineEmbedding builds %q", p[0], p[1], got.EmbedStrategy, e.Strategy)
			}
		}
		if err := cfg.validate(); err != nil {
			t.Fatal(err)
		}
		want, err := buildVariant(&cfg, variantSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(e.Table(), want.Table()) {
			t.Errorf("%s -> %s: BaselineEmbedding table differs from the reference build", p[0], p[1])
		}
	}
}

// TestCandidateClosedFormsMatchEdgePass pins the searcher's closed
// forms to their oracles on every candidate the enumeration yields for
// the benchmark's search pairs and the CLI smoke pair: whenever the
// dilation closed form answers, it equals the edge pass over the
// candidate's materialized table; whenever it proves a bijection, the
// table scan finds no violation, and the searcher's congestion — then
// netsim's closed form — equals Congestion's routing pass over the
// table. The candidates searches score are among them: every scored
// candidate of the 16³ and 32³ pairs is a proved bijection.
func TestCandidateClosedFormsMatchEdgePass(t *testing.T) {
	for _, p := range searchPairs(t) {
		g, h := p[0], p[1]
		cfg := cliConfig(g, h)
		if err := cfg.validate(); err != nil {
			t.Fatal(err)
		}
		vs, _ := enumerate(&cfg)
		s := newSearcher(&cfg)
		s.rd.Materialize() // as Search does at these sizes
		tg := taskgraph.FromSpec(g)
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
				got, err := s.congest(e)
				if err != nil {
					t.Fatal(err)
				}
				want, err := netsim.Congestion(s.nw, tg, netsim.Placement(table))
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s -> %s %s: closed-form congestion %+v, routing pass %+v", g, h, v.key(), got, want)
				}
			}
		}
		t.Logf("%s -> %s: %d candidates, %d closed-form dilations, %d proved bijections", g, h, len(vs), dilations, bijections)
	}
}

// TestSearchMaterializesScoredCandidatesOnly: CLI-default searches of
// the 16³ and 32³ pairs build every candidate as one digit kernel and
// measure and validate it in closed form. Every candidate they score
// is a proved bijection, whose congestion netsim also takes in closed
// form, so neither search materializes a table: none for the
// candidates the dilation cap discards, and none for the six each
// scores.
func TestSearchMaterializesScoredCandidatesOnly(t *testing.T) {
	tables := obs.Default().Counter("embed_tables_materialized_total")
	for _, n := range []int{16, 32} {
		cfg := cliConfig(grid.TorusSpec(n, n, n), grid.MeshSpec(n, n, n))
		before := tables.Value()
		res, err := Search(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := tables.Value() - before
		scored := res.Candidates - res.Unbuildable - res.Invalid - res.Capped - res.Pruned
		t.Logf("%d³: %d candidates, %d capped, %d pruned, %d scored, %d tables materialized", n, res.Candidates, res.Capped, res.Pruned, scored, got)
		if got != 0 || scored != 6 {
			t.Errorf("%d³: search materialized %d tables for %d scored candidates, want 0 for 6", n, got, scored)
		}
	}
}
