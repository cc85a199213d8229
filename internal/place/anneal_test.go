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
// re-measures the moved placement with evalTable. Under the extended
// repertoire it draws the move kind, the segment reversals and the
// plane swaps from the RNG exactly as annealRun does, and makes them on
// the table and an inverse table directly: a plane is found by scanning
// every host rank. It mutates tab, which must be a bijection.
func (s *searcher) annealRunFull(tab embed.Table, start Costs, steps int, rng *rand.Rand) (embed.Table, Costs, error) {
	n := len(tab)
	inv := make([]int, n)
	for g, h := range tab {
		inv[h] = g
	}
	shape := s.cfg.Host.Shape
	strides := shape.Strides()
	extended := s.cfg.AnnealMoves == AnnealMovesAll
	var guests, hosts, from []int
	move := func(hosts []int) {
		for i, g := range guests {
			tab[g] = hosts[i]
			inv[hosts[i]] = g
		}
	}
	cur := start
	bestTab := append(embed.Table(nil), tab...)
	best := start
	t0 := 1 + 0.1*start.Score
	const tEnd = 0.01
	for step := 0; step < steps; step++ {
		temp := t0 * math.Pow(tEnd/t0, float64(step)/float64(steps))
		guests, hosts = guests[:0], hosts[:0]
		if extended {
			switch rng.Intn(8) {
			case 6: // reverse a segment of a host-axis line
				if j := rng.Intn(len(shape)); shape[j] >= 2 {
					l, st := shape[j], strides[j]
					anchor := rng.Intn(n)
					base := anchor - anchor/st%l*st
					a, b := rng.Intn(l), rng.Intn(l-1)
					if b >= a {
						b++
					}
					a, b = min(a, b), max(a, b)
					for k := a; k <= b; k++ {
						guests = append(guests, inv[base+k*st])
						hosts = append(hosts, base+(a+b-k)*st)
					}
				}
			case 7: // swap two parallel hyperplanes
				if j := rng.Intn(len(shape)); shape[j] >= 2 {
					l, st := shape[j], strides[j]
					c1, c2 := rng.Intn(l), rng.Intn(l-1)
					if c2 >= c1 {
						c2++
					}
					for h := range n {
						if h/st%l == c1 {
							h2 := h + (c2-c1)*st
							guests = append(guests, inv[h], inv[h2])
							hosts = append(hosts, h2, h)
						}
					}
				}
			}
		}
		if len(guests) == 0 {
			i := rng.Intn(n)
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			guests = append(guests, i, j)
			hosts = append(hosts, tab[j], tab[i])
		}
		from = from[:0]
		for _, g := range guests {
			from = append(from, tab[g])
		}
		move(hosts)
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
			move(from)
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

// paperTable returns the table of the searcher's paper embedding and its
// exact costs: a start whose dilation is already low, so most moves
// fail the dilation bound.
func paperTable(t testing.TB, s *searcher) (embed.Table, Costs) {
	t.Helper()
	e, err := s.baselineEmbedding()
	if err != nil {
		t.Fatal(err)
	}
	tab := append(embed.Table(nil), e.Table()...)
	start, err := s.evalTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	return tab, start
}

// TestAnnealIncrementalMatchesFull: the incremental engine consumes the
// RNG exactly as the full re-measurement loop does, so a fixed seed and
// step budget must reproduce the reference's best table and costs
// bit-for-bit, under either repertoire. The scrambled starts accept and
// reject many evaluated moves; the paper starts reject most moves on
// the dilation bound alone, so that path is pinned to the exact rule
// too. The extended cases check every segment reversal and plane swap,
// evaluated and applied or dropped, against the reference's evalTable;
// both runs must also leave the RNG stream at the same point, which
// holds only when every step drew alike.
// Under a dilation-only objective the bound equals the exact score, so
// every uphill move is decided at the bound's threshold, which pins its
// margin.
func TestAnnealIncrementalMatchesFull(t *testing.T) {
	cases := []struct {
		guest, host grid.Spec
		steps       int
		moves       string
		paper       bool      // start from the paper embedding, not a scrambled table
		obj         Objective // the zero value keeps the default
	}{
		{grid.MustSpec(grid.Torus, grid.Shape{16}), grid.TorusSpec(4, 4), 512, DefaultAnnealMoves, false, Objective{}},
		{grid.MeshSpec(6, 4), grid.MeshSpec(8, 3), 512, DefaultAnnealMoves, false, Objective{}},
		{grid.TorusSpec(16, 16), grid.MeshSpec(16, 16), 96, DefaultAnnealMoves, false, Objective{}},
		{grid.TorusSpec(16, 16), grid.MeshSpec(16, 16), 512, DefaultAnnealMoves, true, Objective{}},
		{grid.MeshSpec(6, 4), grid.MeshSpec(8, 3), 512, DefaultAnnealMoves, false, Objective{Alpha: 1}},
		{grid.MeshSpec(16, 16), grid.TorusSpec(4, 4, 16), 256, AnnealMovesAll, false, Objective{}},
		{grid.MeshSpec(16, 16), grid.TorusSpec(4, 4, 16), 512, AnnealMovesAll, true, Objective{}},
	}
	for _, tc := range cases {
		s, tab, start := annealSearcher(t, tc.guest, tc.host, tc.moves)
		if tc.obj != (Objective{}) {
			s.cfg.Objective = tc.obj
			var err error
			if start, err = s.evalTable(tab); err != nil {
				t.Fatal(err)
			}
		}
		if tc.paper {
			tab, start = paperTable(t, s)
		}
		bounded := 0
		for seed := int64(1); seed <= 3; seed++ {
			rng, wantRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			out := s.annealRun(tableEmbedding(t, s, tab), start, tc.steps, rng)
			if out.err != nil {
				t.Fatal(out.err)
			}
			bounded += out.bounded
			wantTab, want, err := s.annealRunFull(append(embed.Table(nil), tab...), start, tc.steps, wantRNG)
			if err != nil {
				t.Fatal(err)
			}
			// The runs draw the uniform only on uphill moves, so runs
			// whose trajectories part leave their streams at different
			// points, even when their best placements agree.
			if rng.Int63() != wantRNG.Int63() {
				t.Fatalf("%s -> %s (%s) seed %d: the runs consumed the RNG stream differently", tc.guest, tc.host, tc.moves, seed)
			}
			if out.got != want {
				t.Fatalf("%s -> %s (%s) seed %d: incremental best %+v, full-eval best %+v",
					tc.guest, tc.host, tc.moves, seed, out.got, want)
			}
			for i := range wantTab {
				if out.tab[i] != wantTab[i] {
					t.Fatalf("%s -> %s (%s) seed %d: best tables diverge at guest %d: %d vs %d",
						tc.guest, tc.host, tc.moves, seed, i, out.tab[i], wantTab[i])
				}
			}
		}
		if tc.paper && 2*bounded <= 3*tc.steps {
			t.Errorf("%s -> %s (%s) from the paper embedding: the bound rejected %d of %d moves, want most", tc.guest, tc.host, tc.moves, bounded, 3*tc.steps)
		}
	}
}

// TestStateCostsMatchEval drives a load state through random swaps,
// segment reversals and plane swaps. Each is proposed and evaluated,
// and the proposed dilation and the evaluated cost vector — score
// included — must equal a full evalTable measurement of the moved table
// exactly, before the move is made. Every fourth move is then dropped
// and the rest applied, after which the state's own costs must equal
// the same measurement. This is the engine-level delta-vs-full property
// the annealing acceptance decisions depend on.
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
	moved := make(embed.Table, n)
	for m := 0; m < moves; m++ {
		switch rng.Intn(3) {
		case 0:
			i := rng.Intn(n)
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ms.swap(ls, i, j)
		case 1:
			if !ms.reverseSegment(ls, rng, n) {
				t.Fatal("reverseSegment refused a multi-node host")
			}
		default:
			if !ms.planeSwap(ls, rng, n) {
				t.Fatal("planeSwap refused a multi-node host")
			}
		}
		ls.CopyTableInto(moved)
		for i, g := range ms.guests {
			moved[g] = int(ms.newHosts[i])
		}
		want, err := s.evalTable(moved)
		if err != nil {
			t.Fatal(err)
		}
		dil := ls.Propose(ms.guests, ms.newHosts)
		if dil != want.Dilation {
			t.Fatalf("move %d: proposed dilation %d, evalTable %d", m, dil, want.Dilation)
		}
		stats, maxDist, avgDist, err := ls.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		if got := s.costs(maxDist, avgDist, stats); got != want {
			t.Fatalf("move %d: evaluated costs %+v, evalTable %+v", m, got, want)
		}
		if m%4 == 3 {
			continue
		}
		ls.Apply()
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
// pair — the speedup that lifted the anneal size gate — and times the
// incremental engine from the pair's paper embedding, where the
// dilation bound rejects most moves before they are routed.
func BenchmarkAnnealStep(b *testing.B) {
	run := func(b *testing.B, full, paper bool) {
		s, tab, start := annealSearcher(b, grid.TorusSpec(16, 16), grid.MeshSpec(16, 16), DefaultAnnealMoves)
		if paper {
			tab, start = paperTable(b, s)
		}
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		var err error
		if full {
			_, _, err = s.annealRunFull(append(embed.Table(nil), tab...), start, b.N, rng)
		} else {
			err = s.annealRun(tableEmbedding(b, s, tab), start, b.N, rng).err
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Run("incremental", func(b *testing.B) { run(b, false, false) })
	b.Run("full", func(b *testing.B) { run(b, true, false) })
	b.Run("paper-seed", func(b *testing.B) { run(b, false, true) })
}
