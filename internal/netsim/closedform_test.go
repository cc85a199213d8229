package netsim

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"torusmesh/internal/catalog"
	"torusmesh/internal/core"
	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/taskgraph"
)

// TestClosedFormMatchesPass pins the closed form to the routing pass on
// every pair of the census spaces (sizes 36, 64 and 120 at maxdim 4,
// and 360 outside -short) whose construction is a proved bijection: its
// stats and histogram equal CongestionHops over the embedding's table,
// EmbeddingCongestion returns the same, and the tiled tally equals the
// accumulator's on every link load, distance bucket and hop sum. Every
// other pair must be refused. The counts of covered pairs are pinned
// too, so a construction change that drops coverage shows: they are the
// kernels whose components are single axes (124, 136, 392 and 1,156)
// plus those with two or more components, one of them spanning several
// axes (80, 96, 580 and 3,552).
func TestClosedFormMatchesPass(t *testing.T) {
	covered := map[int]int{36: 204, 64: 232, 120: 972, 360: 4708}
	sizes := []int{36, 64, 120}
	if !testing.Short() {
		sizes = append(sizes, 360)
	}
	for _, n := range sizes {
		var specs []grid.Spec
		for _, s := range catalog.CanonicalShapesOfSize(n, 4) {
			specs = append(specs, grid.Spec{Kind: grid.Mesh, Shape: s}, grid.Spec{Kind: grid.Torus, Shape: s})
		}
		pairs, got := 0, 0
		for _, h := range specs {
			nw := New(h)
			for _, g := range specs {
				pairs++
				e, err := core.Embed(g, h)
				if err != nil {
					t.Fatalf("%s -> %s: %v", g, h, err)
				}
				k := e.Digits()
				cf := nw.closedForm(g, e)
				if (cf != nil) != (k != nil && k.Bijective()) {
					t.Fatalf("%s -> %s: closed form taken = %t, proved bijection = %t", g, h, cf != nil, k != nil && k.Bijective())
				}
				if cf == nil {
					continue
				}
				got++
				checkClosedForm(t, nw, NewGuest(g), e, cf)
			}
		}
		t.Logf("size %d: %d pairs, %d in closed form", n, pairs, got)
		if got != covered[n] {
			t.Errorf("size %d: %d pairs take the closed form, want %d", n, got, covered[n])
		}
	}
}

// checkClosedForm compares the closed form of e's congestion with the
// routing pass over e's table: the stats and histogram, the chooser's
// answer (which must not build the guest's edge list), and the tiled
// tally against the accumulator's.
func checkClosedForm(t *testing.T, nw *Network, g *Guest, e *embed.Embedding, cf *closedForm) {
	t.Helper()
	fresh := NewGuest(g.Spec)
	if _, _, err := EmbeddingCongestion(nw, fresh, e); err != nil || fresh.graph != nil {
		t.Fatalf("%s -> %s: the closed form built the guest's edge list (err %v)", e.From, e.To, err)
	}
	tg, p := g.Graph(), Placement(e.Table())
	wantStats, wantHist, err := CongestionHops(nw, tg, p)
	if err != nil {
		t.Fatal(err)
	}
	if cf.stats != wantStats || !maps.Equal(HopHistogram(cf.distHist).Map(), wantHist) {
		t.Fatalf("%s -> %s: closed form %+v %v, pass %+v %v", e.From, e.To, cf.stats, HopHistogram(cf.distHist).Map(), wantStats, wantHist)
	}
	stats, hist, err := EmbeddingCongestion(nw, g, e)
	if err != nil || stats != wantStats || !maps.Equal(hist.Map(), wantHist) {
		t.Fatalf("%s -> %s: EmbeddingCongestion %+v %v %v, pass %+v %v", e.From, e.To, stats, hist, err, wantStats, wantHist)
	}
	p32 := make([]int32, len(p))
	for x, h := range p {
		p32[x] = int32(h)
	}
	tiled, routed := nw.tile(cf, p32), nw.accumulate(tg, p)
	if i := firstDiff(tiled.load, routed.load); i >= 0 {
		from, dim, neg := nw.lr.Unrank(i)
		t.Fatalf("%s -> %s: link %d (node %d, axis %d, neg %v) tiled load %d, routed %d",
			e.From, e.To, i, from, dim, neg, tiled.load[i], routed.load[i])
	}
	if !slices.Equal(tiled.distHist, routed.distHist) || tiled.hops != routed.hops || tiled.distSum != routed.distSum {
		t.Fatalf("%s -> %s: tiled tally %v/%d/%d, routed %v/%d/%d", e.From, e.To,
			tiled.distHist, tiled.hops, tiled.distSum, routed.distHist, routed.hops, routed.distSum)
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []int32) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestClosedFormRefusesNonDisjointKernels is the one-component refusal
// test: a carry-free digit kernel whose guest axes all join one
// component, because they share host digits, is not a proved bijection
// even when its table is one (its proof would scan all N points), so
// the closed form must refuse it and the chooser must route it. The
// hand-built kernel maps mesh(2x2) onto line(4) by x0 + 2·x1; the
// reduction torus(4x4x4) -> mesh(8x8) is a construction of the paper
// of the same kind.
func TestClosedFormRefusesNonDisjointKernels(t *testing.T) {
	g2 := grid.MeshSpec(2, 2)
	shared, err := embed.NewRows(g2, grid.LineSpec(4), "shared digit", 0, func(i, v int) int {
		return v << i
	})
	if err != nil {
		t.Fatal(err)
	}
	reduction, err := core.Embed(grid.TorusSpec(4, 4, 4), grid.MeshSpec(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*embed.Embedding{shared, reduction} {
		k := e.Digits()
		if k == nil {
			t.Fatalf("%s -> %s (%s): not one digit kernel", e.From, e.To, e.Strategy)
		}
		if _, _, ok := k.EdgeDilation(e.From, e.To.NewRankDistancer()); !ok {
			t.Fatalf("%s -> %s (%s): kernel is not carry-free", e.From, e.To, e.Strategy)
		}
		if k.Bijective() || k.Components() != nil {
			t.Fatalf("%s -> %s (%s): kernel proved a bijection", e.From, e.To, e.Strategy)
		}
		nw, g := New(e.To), NewGuest(e.From)
		if cf := nw.closedForm(e.From, e); cf != nil {
			t.Fatalf("%s -> %s (%s): closed form taken for a one-component kernel", e.From, e.To, e.Strategy)
		}
		stats, hist, err := EmbeddingCongestion(nw, g, e)
		if err != nil {
			t.Fatal(err)
		}
		wantStats, wantHist, err := CongestionHops(nw, taskgraph.FromSpec(e.From), Placement(e.Table()))
		if err != nil {
			t.Fatal(err)
		}
		if stats != wantStats || !maps.Equal(hist.Map(), wantHist) {
			t.Fatalf("%s -> %s: EmbeddingCongestion %+v %v, pass %+v %v", e.From, e.To, stats, hist.Map(), wantStats, wantHist)
		}
	}
}

// TestTiledLoadStateMatchesRouted drives a load state tiled from the
// closed form and one built by the routing pass, over the same proved
// bijection, through the same seeded swaps and permutations of random
// guest sets (the shape of the extended anneal moves). Stats and
// Dilation must agree after every move, and every load and bucket at
// the end. The pairs' components are pinned: single axes, one axis
// moving two host digits, and two with multi-axis components.
func TestTiledLoadStateMatchesRouted(t *testing.T) {
	moves := 2000
	if testing.Short() {
		moves = 300
	}
	for _, tc := range []struct {
		guest, host grid.Spec
		components  [][]int // each component's guest axes
	}{
		{grid.TorusSpec(16, 16, 16), grid.MeshSpec(16, 16, 16), [][]int{{0}, {1}, {2}}},
		{grid.RingSpec(64), grid.TorusSpec(8, 8), [][]int{{0}}},
		{grid.TorusSpec(2, 4, 8), grid.MeshSpec(8, 4, 2), [][]int{{0}, {1}, {2}}},
		{grid.TorusSpec(4, 4, 2, 2), grid.MeshSpec(8, 8), [][]int{{0, 2}, {1, 3}}},
		{grid.MeshSpec(8, 2, 2, 2), grid.TorusSpec(8, 8), [][]int{{0}, {1, 2, 3}}},
	} {
		gs, hs := tc.guest, tc.host
		e, err := core.Embed(gs, hs)
		if err != nil {
			t.Fatal(err)
		}
		nw, g := New(hs), NewGuest(gs)
		if nw.closedForm(gs, e) == nil {
			t.Fatalf("%s -> %s (%s): not a proved bijection", gs, hs, e.Strategy)
		}
		var got [][]int
		for _, c := range e.Digits().Components() {
			got = append(got, c.Axes)
		}
		slices.SortFunc(got, slices.Compare)
		if !slices.EqualFunc(got, tc.components, slices.Equal) {
			t.Fatalf("%s -> %s (%s): components %v, want %v", gs, hs, e.Strategy, got, tc.components)
		}
		tiled, err := NewEmbeddingLoadState(nw, g, e)
		if err != nil {
			t.Fatal(err)
		}
		routed, err := NewLoadState(nw, taskgraph.FromSpec(gs), Placement(e.Table()))
		if err != nil {
			t.Fatal(err)
		}
		n := gs.Size()
		rng := rand.New(rand.NewSource(int64(n)))
		for m := 0; m <= moves; m++ {
			if a, b := tiled.Stats(), routed.Stats(); a != b {
				t.Fatalf("%s -> %s move %d: tiled stats %+v, routed %+v", gs, hs, m, a, b)
			}
			ad, aa := tiled.Dilation()
			bd, ba := routed.Dilation()
			if ad != bd || aa != ba {
				t.Fatalf("%s -> %s move %d: tiled dilation (%d, %v), routed (%d, %v)", gs, hs, m, ad, aa, bd, ba)
			}
			if m%3 != 0 {
				u, v := rng.Intn(n), rng.Intn(n-1)
				if v >= u {
					v++
				}
				if err := tiled.Swap(u, v); err != nil {
					t.Fatal(err)
				}
				if err := routed.Swap(u, v); err != nil {
					t.Fatal(err)
				}
				continue
			}
			// Permute a random guest set onto a rotation of its images.
			guests := make([]int32, 2+rng.Intn(6))
			for i, gi := range rng.Perm(n)[:len(guests)] {
				guests[i] = int32(gi)
			}
			hosts := make([]int32, len(guests))
			for i := range guests {
				hosts[i] = int32(tiled.HostOf(int(guests[(i+1)%len(guests)])))
			}
			permute(t, tiled, guests, hosts)
			permute(t, routed, guests, hosts)
		}
		if i := firstDiff(tiled.load, routed.load); i >= 0 {
			t.Fatalf("%s -> %s: link %d carries %d tiled, %d routed", gs, hs, i, tiled.load[i], routed.load[i])
		}
		if !slices.Equal(tiled.loadHist[1:tiled.maxLink+1], routed.loadHist[1:routed.maxLink+1]) ||
			!slices.Equal(tiled.distHist, routed.distHist) || !slices.Equal(tiled.p, routed.p) {
			t.Fatalf("%s -> %s: buckets or placements diverge after %d moves", gs, hs, moves)
		}
	}
}

// TestTiledLinksOnFirstEvaluate: a load state seeded with the paper
// embedding of torus:16x16 -> mesh:16x16, a proved bijection, takes its
// aggregates from the closed form and builds no link array until its
// first Evaluate: not at construction, not for a proposal. That
// Evaluate tiles the array, whose loads equal the routing pass's, and
// leaves the aggregates as they were. A state whose closed-form
// aggregates disagree with the tiled array fails that Evaluate.
func TestTiledLinksOnFirstEvaluate(t *testing.T) {
	gs, hs := grid.TorusSpec(16, 16), grid.MeshSpec(16, 16)
	e, err := core.Embed(gs, hs)
	if err != nil {
		t.Fatal(err)
	}
	nw, g := New(hs), NewGuest(gs)
	if nw.closedForm(gs, e) == nil {
		t.Fatalf("%s -> %s (%s): not a proved bijection", gs, hs, e.Strategy)
	}
	ls, err := NewEmbeddingLoadState(nw, g, e)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(ls)
	if ls.load != nil || ls.loadHist != nil || ls.delta != nil {
		t.Fatal("the constructor built the link array")
	}
	ls.Propose([]int32{0, 17}, []int32{int32(ls.HostOf(17)), int32(ls.HostOf(0))})
	if ls.load != nil {
		t.Fatal("Propose built the link array")
	}
	if _, _, _, err := ls.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if ls.load == nil {
		t.Fatal("Evaluate left the link array unbuilt")
	}
	if got := snapshotOf(ls); !got.equal(want) {
		t.Fatalf("tiling on the first Evaluate changed the state:\n%+v\nwant\n%+v", got, want)
	}
	routed := nw.accumulate(g.Graph(), Placement(e.Table()))
	if i := firstDiff(ls.load, routed.load); i >= 0 {
		t.Fatalf("link %d carries %d tiled, %d routed", i, ls.load[i], routed.load[i])
	}

	bad, err := NewEmbeddingLoadState(nw, g, e)
	if err != nil {
		t.Fatal(err)
	}
	bad.used++
	bad.Propose([]int32{0, 17}, []int32{int32(bad.HostOf(17)), int32(bad.HostOf(0))})
	if _, _, _, err := bad.Evaluate(); err == nil || !strings.Contains(err.Error(), "closed form") {
		t.Fatalf("a tiled array disagreeing with the closed form's used links: Evaluate error %v", err)
	}
}

// TestGuestSharedFirstUse: one Guest serves concurrent passes, as the
// census's pair workers and a search's candidate and annealing workers
// share theirs. Goroutines racing to the first routing pass and the
// first load state must build the edge list and incidence lists once
// and measure what a lone caller measures. They share the Network too,
// and race to its first fibers through a two-component bijection's
// closed form.
func TestGuestSharedFirstUse(t *testing.T) {
	gs, hs := grid.TorusSpec(4, 4, 4), grid.MeshSpec(8, 8)
	e, err := core.Embed(gs, hs) // a reduction: routed, not closed form
	if err != nil {
		t.Fatal(err)
	}
	cs := grid.TorusSpec(4, 4, 2, 2)
	comp, err := core.Embed(cs, hs) // two components, {0,2} and {1,3}
	if err != nil {
		t.Fatal(err)
	}
	nw := New(hs)
	want, _, err := CongestionHops(nw, taskgraph.FromSpec(gs), Placement(e.Table()))
	if err != nil {
		t.Fatal(err)
	}
	compWant, err := Congestion(nw, taskgraph.FromSpec(cs), Placement(comp.Table()))
	if err != nil {
		t.Fatal(err)
	}
	g, cg := NewGuest(gs), NewGuest(cs)
	const workers = 8
	graphs := make([]*taskgraph.Graph, workers)
	errs := make(chan error, 3*workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats, _, err := EmbeddingCongestion(nw, g, e)
			if err == nil && stats != want {
				err = fmt.Errorf("worker %d: congestion %+v, want %+v", w, stats, want)
			}
			errs <- err
			ls, err := NewEmbeddingLoadState(nw, g, e)
			if err == nil && ls.Stats() != want {
				err = fmt.Errorf("worker %d: load state %+v, want %+v", w, ls.Stats(), want)
			}
			errs <- err
			stats, _, err = EmbeddingCongestion(nw, cg, comp)
			if err == nil && stats != compWant {
				err = fmt.Errorf("worker %d: closed form %+v, want %+v", w, stats, compWant)
			}
			errs <- err
			graphs[w] = g.Graph()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	for w, tg := range graphs {
		if tg != graphs[0] {
			t.Fatalf("worker %d got its own edge list", w)
		}
	}
}
