package place

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/netsim"
)

// annealRunFull is the pre-incremental annealing loop, preserved as the
// reference the incremental engine is pinned against: every step fully
// re-measures the swapped placement with evalTable. It mutates tab.
func (s *searcher) annealRunFull(tab embed.Table, start Costs, steps int, rng *rand.Rand) (embed.Table, Costs, error) {
	n := len(tab)
	cur := start
	bestTab := append(embed.Table(nil), tab...)
	best := start
	t0 := 1 + 0.1*start.Score
	const tEnd = 0.01
	for step := 0; step < steps; step++ {
		temp := t0 * math.Pow(tEnd/t0, float64(step)/float64(steps))
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		tab[i], tab[j] = tab[j], tab[i]
		c, err := s.evalTable(tab)
		if err != nil {
			return nil, Costs{}, err
		}
		delta := c.Score - cur.Score
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			cur = c
			if c.Score < best.Score || c.dominates(best) {
				best = c
				copy(bestTab, tab)
			}
		} else {
			tab[i], tab[j] = tab[j], tab[i]
		}
	}
	return bestTab, best, nil
}

// annealSearcher builds a validated searcher plus a scrambled start
// table and its exact costs for direct annealRun tests.
func annealSearcher(t testing.TB, guest, host grid.Spec, moves string) (*searcher, embed.Table, Costs) {
	t.Helper()
	cfg := Config{
		Guest:       guest,
		Host:        host,
		Anneal:      true,
		AnnealMoves: moves,
		Strategies:  DefaultStrategies(),
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	s := newSearcher(&cfg)
	s.rd.Materialize() // as Search does at these sizes
	n := guest.Size()
	tab := make(embed.Table, n)
	for i := range tab {
		tab[i] = (i * 5) % n // gcd(5, n) = 1 for the test sizes: a bijection
	}
	start, err := s.evalTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	return s, tab, start
}

// tableEmbedding wraps a placement table as the searcher's embedding,
// the form annealRun takes. Its kernel is the table, so the run's load
// state starts from the routing pass.
func tableEmbedding(t testing.TB, s *searcher, tab embed.Table) *embed.Embedding {
	t.Helper()
	e, err := embed.FromTable(s.cfg.Guest, s.cfg.Host, "table", 0, tab)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestAnnealIncrementalMatchesFull: with the default swap repertoire,
// the incremental engine consumes the RNG exactly as the full
// re-measurement loop did, so a fixed seed and step budget must
// reproduce the reference's best table and costs bit-for-bit.
func TestAnnealIncrementalMatchesFull(t *testing.T) {
	cases := []struct {
		guest, host grid.Spec
		steps       int
	}{
		{grid.MustSpec(grid.Torus, grid.Shape{16}), grid.TorusSpec(4, 4), 512},
		{grid.MeshSpec(6, 4), grid.MeshSpec(8, 3), 512},
		{grid.TorusSpec(16, 16), grid.MeshSpec(16, 16), 96},
	}
	for _, tc := range cases {
		s, tab, start := annealSearcher(t, tc.guest, tc.host, DefaultAnnealMoves)
		for seed := int64(1); seed <= 3; seed++ {
			gotTab, got, err := s.annealRun(tableEmbedding(t, s, tab), start, tc.steps, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			wantTab, want, err := s.annealRunFull(append(embed.Table(nil), tab...), start, tc.steps, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s -> %s seed %d: incremental best %+v, full-eval best %+v",
					tc.guest, tc.host, seed, got, want)
			}
			for i := range wantTab {
				if gotTab[i] != wantTab[i] {
					t.Fatalf("%s -> %s seed %d: best tables diverge at guest %d: %d vs %d",
						tc.guest, tc.host, seed, i, gotTab[i], wantTab[i])
				}
			}
		}
	}
}

// TestStateCostsMatchEval drives a load state through random swaps,
// segment reversals and plane swaps, checking after every move that the
// incrementally derived cost vector — score included — equals a full
// evalTable measurement exactly. This is the engine-level delta-vs-full
// property the annealing acceptance decisions depend on.
func TestStateCostsMatchEval(t *testing.T) {
	s, tab, _ := annealSearcher(t, grid.TorusSpec(6, 4), grid.MeshSpec(4, 6), AnnealMovesAll)
	ls, err := netsim.NewLoadState(s.nw, s.guest.Graph(), netsim.Placement(tab))
	if err != nil {
		t.Fatal(err)
	}
	ms := s.newMoveScratch()
	rng := rand.New(rand.NewSource(5))
	n := len(tab)
	moves := 80
	if testing.Short() {
		moves = 20
	}
	for m := 0; m < moves; m++ {
		switch rng.Intn(3) {
		case 0:
			i := rng.Intn(n)
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ls.Swap(i, j)
		case 1:
			if !ms.reverseSegment(ls, rng, n) {
				t.Fatal("reverseSegment refused a multi-node host")
			}
			ls.Permute(ms.guests, ms.newHosts)
		default:
			if !ms.planeSwap(ls, rng, n) {
				t.Fatal("planeSwap refused a multi-node host")
			}
			ls.Permute(ms.guests, ms.newHosts)
		}
		snap := make(embed.Table, n)
		ls.CopyTableInto(snap)
		want, err := s.evalTable(snap)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.stateCosts(ls); got != want {
			t.Fatalf("move %d: incremental costs %+v, evalTable %+v", m, got, want)
		}
	}
}

// TestAnnealExtendedMoves: the extended repertoire must run its
// internal revalidation clean and keep the admission invariant — every
// annealed front member strictly dominates its seed.
func TestAnnealExtendedMoves(t *testing.T) {
	res, err := Search(Config{
		Guest:       grid.MustSpec(grid.Torus, grid.Shape{16}),
		Host:        grid.TorusSpec(4, 4),
		Budget:      8,
		Anneal:      true,
		AnnealSteps: 512,
		AnnealMoves: AnnealMovesAll,
		Strategies:  DefaultStrategies(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Annealed == 0 {
		t.Fatal("no annealing runs with the extended repertoire")
	}
	byIndex := map[int]Candidate{}
	for _, c := range res.Front {
		byIndex[c.Index] = c
	}
	for _, c := range res.Front {
		if c.Annealed {
			if seed, ok := byIndex[c.AnnealedFrom]; ok && !c.dominates(seed.Costs) {
				t.Errorf("annealed candidate %d does not dominate its seed %d", c.Index, c.AnnealedFrom)
			}
		}
	}
}

// TestAnnealMovesValidation: unknown repertoires are rejected; the spec
// string carries the moves token.
func TestAnnealMovesValidation(t *testing.T) {
	cfg := Config{
		Guest:       grid.MustSpec(grid.Torus, grid.Shape{16}),
		Host:        grid.TorusSpec(4, 4),
		Anneal:      true,
		AnnealMoves: "jumble",
		Strategies:  DefaultStrategies(),
	}
	if _, err := Search(cfg); err == nil {
		t.Error("unknown anneal move repertoire accepted")
	}
	cfg.AnnealMoves = ""
	spec := cfg.Spec()
	if !bytes.Contains([]byte(spec), []byte("moves=swap")) {
		t.Errorf("spec %q lacks the default moves token", spec)
	}
}

// TestAnnealLargePairDeterministic: the lifted size gate must hold in
// practice — a 4096-node pair anneals to completion, and the artifact
// is bit-identical across runs and GOMAXPROCS settings.
func TestAnnealLargePairDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("large pair in -short mode")
	}
	cfg := Config{
		Guest:       grid.TorusSpec(16, 16, 16),
		Host:        grid.MeshSpec(16, 16, 16),
		Budget:      4,
		Anneal:      true,
		AnnealSteps: 128,
		AnnealMoves: AnnealMovesAll,
		Strategies:  DefaultStrategies(),
	}
	encode := func() []byte {
		res, err := Search(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Annealed == 0 {
			t.Fatal("no annealing runs on the large pair — the size gate is back?")
		}
		data, err := res.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := encode()
	if got := encode(); !bytes.Equal(first, got) {
		t.Fatalf("second run produced a different artifact:\n%s\nvs\n%s", first, got)
	}
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	if got := encode(); !bytes.Equal(first, got) {
		t.Fatalf("GOMAXPROCS=2 produced a different artifact:\n%s\nvs\n%s", first, got)
	}
}

// TestAnnealSeedsFromScored: seed selection starts with the front and
// tops up from the scored set by (score, index); the skipped count
// reports cap truncation.
func TestAnnealSeedsFromScored(t *testing.T) {
	mk := func(idx int, dil, peak int, score float64) Candidate {
		return Candidate{Index: idx, Costs: Costs{Dilation: dil, Peak: peak, Score: score}}
	}
	scored := []Candidate{
		mk(0, 1, 3, 4), mk(1, 2, 2, 4.5), mk(2, 3, 1, 5),
		mk(3, 3, 3, 6), mk(4, 2, 4, 3.9),
	}
	front := []Candidate{scored[0], scored[1], scored[2]}
	seeds, skipped := annealSeeds(scored, front)
	if skipped != 0 {
		t.Errorf("skipped = %d, want 0 (5 eligible, cap 8)", skipped)
	}
	wantOrder := []int{0, 1, 2, 4, 3} // front order, then rest by score
	if len(seeds) != len(wantOrder) {
		t.Fatalf("got %d seeds, want %d", len(seeds), len(wantOrder))
	}
	for i, idx := range wantOrder {
		if seeds[i].Index != idx {
			t.Errorf("seed %d has index %d, want %d", i, seeds[i].Index, idx)
		}
	}
	// Overflow: 10 scored, cap 8 -> 2 skipped.
	for i := 5; i < 10; i++ {
		scored = append(scored, mk(i, 4, 4, 10+float64(i)))
	}
	seeds, skipped = annealSeeds(scored, front)
	if len(seeds) != annealMaxSeeds || skipped != 2 {
		t.Errorf("got %d seeds with %d skipped, want %d and 2", len(seeds), skipped, annealMaxSeeds)
	}
}

// BenchmarkAnnealStep compares the per-move cost of the incremental
// engine against the retired full re-measurement loop on a 256-node
// pair — the speedup that lifted the anneal size gate.
func BenchmarkAnnealStep(b *testing.B) {
	run := func(b *testing.B, full bool) {
		s, tab, start := annealSearcher(b, grid.TorusSpec(16, 16), grid.MeshSpec(16, 16), DefaultAnnealMoves)
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		var err error
		if full {
			_, _, err = s.annealRunFull(append(embed.Table(nil), tab...), start, b.N, rng)
		} else {
			_, _, err = s.annealRun(tableEmbedding(b, s, tab), start, b.N, rng)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Run("incremental", func(b *testing.B) { run(b, false) })
	b.Run("full", func(b *testing.B) { run(b, true) })
}
