package netsim

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"torusmesh/internal/grid"
	"torusmesh/internal/taskgraph"
)

var parityCases = []struct {
	host  grid.Spec
	guest grid.Spec
}{
	{grid.TorusSpec(4, 4), grid.MustSpec(grid.Torus, grid.Shape{16})},
	{grid.MeshSpec(3, 5), grid.TorusSpec(5, 3)},
	{grid.TorusSpec(2, 3, 4), grid.MeshSpec(4, 6)},
	{grid.MeshSpec(2, 2, 2, 3), grid.TorusSpec(6, 4)},
	{grid.RingSpec(9), grid.MeshSpec(3, 3)},
}

// TestCongestionMatchesReference pins the dense link-rank accumulator to
// the map-based reference walk on scrambled placements across kinds and
// dimensions — including wrap routes, where the rank bookkeeping is
// easiest to get wrong.
func TestCongestionMatchesReference(t *testing.T) {
	for _, tc := range parityCases {
		nw := New(tc.host)
		tg := taskgraph.FromSpec(tc.guest)
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 4; trial++ {
			p := Placement(rng.Perm(nw.Size())[:tg.N])
			got, err := Congestion(nw, tg, p)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := congestionRef(nw, tg, p); got != want {
				t.Fatalf("%s on %s trial %d: dense %+v, reference %+v",
					tc.guest, tc.host, trial, got, want)
			}
		}
	}
}

// TestLoadStateMatchesBatch checks a freshly built LoadState against the
// batch measurements it must reproduce bit-for-bit.
func TestLoadStateMatchesBatch(t *testing.T) {
	for _, tc := range parityCases {
		nw := New(tc.host)
		tg := taskgraph.FromSpec(tc.guest)
		rd := tc.host.NewRankDistancer()
		rng := rand.New(rand.NewSource(11))
		p := Placement(rng.Perm(nw.Size())[:tg.N])
		ls, err := NewLoadState(nw, tg, p)
		if err != nil {
			t.Fatal(err)
		}
		assertParity(t, ls, nw, tg, tc.guest, rd)
	}
}

// TestLoadStateIncrementalParity drives a LoadState through random
// swaps and multi-node permutations, each staged by Propose and then
// dropped, evaluated and dropped, or evaluated and applied. It checks
// that Evaluate's dilation is the proposed one, that neither Propose
// nor Evaluate changes the state, and after every applied move that
// Evaluate's numbers and all incrementally maintained aggregates equal
// a from-scratch measurement — the property the annealing pass's
// correctness rests on.
func TestLoadStateIncrementalParity(t *testing.T) {
	for _, tc := range parityCases {
		nw := New(tc.host)
		tg := taskgraph.FromSpec(tc.guest)
		rd := tc.host.NewRankDistancer()
		rng := rand.New(rand.NewSource(23))
		p := Placement(rng.Perm(nw.Size())[:tg.N])
		ls, err := NewLoadState(nw, tg, p)
		if err != nil {
			t.Fatal(err)
		}
		moves := 60
		if testing.Short() {
			moves = 15
		}
		var proposed, evaluated, applied int
		for m := 0; m < moves; m++ {
			guests, hosts := randomMove(rng, ls, tg.N)
			before := snapshotOf(ls)
			dil := ls.Propose(guests, hosts)
			if got := snapshotOf(ls); !got.equal(before) {
				t.Fatalf("%s on %s move %d: Propose changed the state:\n%+v\nwant\n%+v", tc.guest, tc.host, m, got, before)
			}
			if rng.Intn(5) == 0 {
				proposed++
				continue
			}
			stats, maxDist, avgDist, err := ls.Evaluate()
			if err != nil {
				t.Fatal(err)
			}
			if maxDist != dil {
				t.Fatalf("%s on %s move %d: proposed dilation %d, evaluated %d", tc.guest, tc.host, m, dil, maxDist)
			}
			if got := snapshotOf(ls); !got.equal(before) {
				t.Fatalf("%s on %s move %d: Evaluate changed the state:\n%+v\nwant\n%+v", tc.guest, tc.host, m, got, before)
			}
			if rng.Intn(3) == 0 {
				evaluated++
				continue
			}
			ls.Apply()
			applied++
			for _, g := range guests {
				if ls.GuestAt(ls.HostOf(int(g))) != int(g) {
					t.Fatalf("%s on %s move %d: inverse map broken after Apply", tc.guest, tc.host, m)
				}
			}
			want, wantMax, wantAvg := measure(t, ls, tc.guest, rd)
			if stats != want || maxDist != wantMax || avgDist != wantAvg {
				t.Fatalf("%s on %s move %d: Evaluate returned %+v (%d, %v), the moved table measures %+v (%d, %v)",
					tc.guest, tc.host, m, stats, maxDist, avgDist, want, wantMax, wantAvg)
			}
			assertParity(t, ls, nw, tg, tc.guest, rd)
			if t.Failed() {
				t.Fatalf("%s on %s: diverged at move %d", tc.guest, tc.host, m)
			}
		}
		if proposed == 0 || evaluated == 0 || applied == 0 {
			t.Fatalf("%s on %s: %d moves dropped after Propose, %d after Evaluate and %d applied, want each", tc.guest, tc.host, proposed, evaluated, applied)
		}
		recheck(t, ls)
	}
}

// randomMove draws a swap of two guests (two times in three) or a
// rotation of a random handful of guests through each other's hosts,
// the shape of the reversal and plane moves.
func randomMove(rng *rand.Rand, ls *LoadState, n int) (guests, hosts []int32) {
	k := 2
	if rng.Intn(3) == 0 {
		k += rng.Intn(4)
	}
	for _, g := range rng.Perm(n)[:k] {
		guests = append(guests, int32(g))
	}
	for i := range guests {
		hosts = append(hosts, int32(ls.HostOf(int(guests[(i+1)%k]))))
	}
	return guests, hosts
}

// permute moves each guests[i] to hosts[i] as one applied move.
func permute(t *testing.T, ls *LoadState, guests, hosts []int32) {
	t.Helper()
	ls.Propose(guests, hosts)
	if _, _, _, err := ls.Evaluate(); err != nil {
		t.Fatal(err)
	}
	ls.Apply()
}

// snapshot is everything a LoadState reports: its costs, its table and
// its inverse table.
type snapshot struct {
	stats   CongestionStats
	maxDist int
	avgDist float64
	table   []int
	guestAt []int
}

func snapshotOf(ls *LoadState) snapshot {
	s := snapshot{stats: ls.Stats(), table: make([]int, len(ls.p)), guestAt: make([]int, ls.nw.Size())}
	s.maxDist, s.avgDist = ls.Dilation()
	ls.CopyTableInto(s.table)
	for h := range s.guestAt {
		s.guestAt[h] = ls.GuestAt(h)
	}
	return s
}

func (s snapshot) equal(o snapshot) bool {
	return s.stats == o.stats && s.maxDist == o.maxDist && s.avgDist == o.avgDist &&
		slices.Equal(s.table, o.table) && slices.Equal(s.guestAt, o.guestAt)
}

// recheck re-measures the placement from scratch and fails the test
// when the incremental congestion aggregates drifted from it.
func recheck(t *testing.T, ls *LoadState) {
	t.Helper()
	tab := make([]int, len(ls.p))
	ls.CopyTableInto(tab)
	want, err := Congestion(ls.nw, ls.tg, Placement(tab))
	if err != nil {
		t.Fatal(err)
	}
	if got := ls.Stats(); got != want {
		t.Fatalf("incremental congestion drifted: have %+v, full measurement %+v", got, want)
	}
}

// measure measures the state's current table from scratch: its
// congestion stats and its maximum and mean edge distance.
func measure(t *testing.T, ls *LoadState, guest grid.Spec, rd *grid.RankDistancer) (CongestionStats, int, float64) {
	t.Helper()
	tab := make([]int, len(ls.p))
	ls.CopyTableInto(tab)
	stats, err := Congestion(ls.nw, ls.tg, Placement(tab))
	if err != nil {
		t.Fatal(err)
	}
	maxDist, avgDist := guest.EdgeDilation(tab, rd)
	return stats, maxDist, avgDist
}

func assertParity(t *testing.T, ls *LoadState, nw *Network, tg *taskgraph.Graph, guest grid.Spec, rd *grid.RankDistancer) {
	t.Helper()
	want, wantMax, wantAvg := measure(t, ls, guest, rd)
	if got := ls.Stats(); got != want {
		t.Errorf("stats: incremental %+v, full %+v", got, want)
	}
	gotMax, gotAvg := ls.Dilation()
	if gotMax != wantMax || gotAvg != wantAvg {
		t.Errorf("dilation: incremental (%d, %v), full (%d, %v)", gotMax, gotAvg, wantMax, wantAvg)
	}
}

func TestLoadStateRejectsBadInput(t *testing.T) {
	nw := New(grid.LineSpec(4))
	tg := taskgraph.Pipeline(3)
	if _, err := NewLoadState(nw, tg, Placement{0, 1}); err == nil {
		t.Error("short placement accepted")
	}
	if _, err := NewLoadState(nw, &taskgraph.Graph{Name: "bad", N: 2, Edges: [][2]int{{0, 9}}}, Placement{0, 1}); err == nil {
		t.Error("bad task graph accepted")
	}
	ls, err := NewLoadState(nw, tg, Placement{2, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if ls.GuestAt(1) != -1 {
		t.Errorf("empty host slot reports guest %d, want -1", ls.GuestAt(1))
	}
}

// TestLoadStateHistogramGrowth drives the per-load bucket array past its
// initial 8 buckets through moves: ten edges of a 20-node line start
// side by side at unit length, then one applied move folds them so that
// all cross the middle link (load 10) and the outermost routes 19 hops.
// Evaluating the fold and dropping it must leave the unit-length state
// exactly, and the aggregates must stay exact through the growth, the
// unfold back below the original array sizes, and the fold again.
func TestLoadStateHistogramGrowth(t *testing.T) {
	nw := New(grid.LineSpec(20))
	tg := &taskgraph.Graph{Name: "folded", N: 20}
	for i := 0; i < 10; i++ {
		tg.Edges = append(tg.Edges, [2]int{i, 19 - i})
	}
	side := make(Placement, 20) // edge i on hosts 2i and 2i+1
	guests := make([]int32, 20)
	folded := make([]int32, 20) // guest g on host g
	unfolded := make([]int32, 20)
	for i := 0; i < 10; i++ {
		side[i], side[19-i] = 2*i, 2*i+1
	}
	for g := range guests {
		guests[g], folded[g], unfolded[g] = int32(g), int32(g), int32(side[g])
	}
	ls, err := NewLoadState(nw, tg, side)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ls.loadHist); got != 8 {
		t.Fatalf("unit-load placement starts with %d load buckets, want 8", got)
	}
	side0 := snapshotOf(ls)
	ls.Propose(guests, folded)
	stats, maxDist, _, err := ls.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxLink != 10 || maxDist != 19 {
		t.Fatalf("evaluated fold: MaxLink %d and max distance %d, want 10 and 19", stats.MaxLink, maxDist)
	}
	if got := snapshotOf(ls); !got.equal(side0) || len(ls.loadHist) != 8 {
		t.Fatalf("evaluating the fold left %d buckets and\n%+v\nwant 8 and\n%+v", len(ls.loadHist), got, side0)
	}
	permute(t, ls, guests, folded)
	if len(ls.loadHist) <= 8 {
		t.Fatalf("load histogram did not grow: %d buckets", len(ls.loadHist))
	}
	if got := ls.Stats(); got.MaxLink != 10 {
		t.Fatalf("MaxLink = %d, want 10 (all edges cross the middle link)", got.MaxLink)
	}
	if max, _ := ls.Dilation(); max != 19 {
		t.Fatalf("max distance = %d, want 19", max)
	}
	recheck(t, ls)
	permute(t, ls, guests, unfolded)
	if got := snapshotOf(ls); !got.equal(side0) {
		t.Fatalf("unfolding left\n%+v\nwant\n%+v", got, side0)
	}
	recheck(t, ls)
	permute(t, ls, guests, folded)
	// Unfold one long edge and re-fold it: growth bookkeeping must
	// survive decrements back below the original array sizes.
	for range 2 {
		if err := ls.Swap(0, 19); err != nil {
			t.Fatal(err)
		}
	}
	recheck(t, ls)
	if max, _ := ls.Dilation(); max != 19 {
		t.Fatalf("max distance after swaps = %d, want 19", max)
	}
}

// TestLoadStateGroupMoves drives plane swaps and segment reversals
// through Propose, Evaluate and Apply, from the identity placement of a
// mesh on the torus of its shape, so the moved guests share edges.
// After every Propose the touched edges must be each edge incident to a
// moved guest exactly once, under the guest touched first, and the
// moved-guest marks must be clear; every applied move must leave the
// aggregates equal to a fresh measurement.
func TestLoadStateGroupMoves(t *testing.T) {
	host, guest := grid.TorusSpec(6, 4, 5), grid.MeshSpec(6, 4, 5)
	nw := New(host)
	tg := taskgraph.FromSpec(guest)
	rd := host.NewRankDistancer()
	p := make(Placement, tg.N)
	for i := range p {
		p[i] = i
	}
	ls, err := NewLoadState(nw, tg, p)
	if err != nil {
		t.Fatal(err)
	}
	shape, strides := host.Shape, host.Shape.Strides()
	rng := rand.New(rand.NewSource(47))
	shared := 0
	for m := 0; m < 80; m++ {
		j := rng.Intn(len(shape))
		l, stride := shape[j], strides[j]
		a, b := rng.Intn(l), rng.Intn(l-1)
		if b >= a {
			b++
		}
		var guests, hosts []int32
		move := func(from, to int) {
			guests = append(guests, int32(ls.GuestAt(from)))
			hosts = append(hosts, int32(to))
		}
		if m%2 == 0 {
			// Swap the hyperplanes at coordinates a and b of axis j.
			for h := 0; h < tg.N; h++ {
				if (h/stride)%l == a {
					move(h, h+(b-a)*stride)
					move(h+(b-a)*stride, h)
				}
			}
		} else {
			// Reverse the segment a..b of a random line along axis j.
			anchor := rng.Intn(tg.N)
			base := anchor - ((anchor/stride)%l)*stride
			a, b = min(a, b), max(a, b)
			for k := a; k <= b; k++ {
				move(base+k*stride, base+(a+b-k)*stride)
			}
		}
		ls.Propose(guests, hosts)
		want, both := touchedOracle(tg, guests)
		shared += both
		if !slices.Equal(ls.mv.touched, want) {
			t.Fatalf("move %d: touched %v, want %v", m, ls.mv.touched, want)
		}
		if i := slices.IndexFunc(ls.moved, func(w uint64) bool { return w != 0 }); i >= 0 {
			t.Fatalf("move %d: Propose left moved-guest marks in word %d", m, i)
		}
		if _, _, _, err := ls.Evaluate(); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) == 0 {
			continue
		}
		ls.Apply()
		assertParity(t, ls, nw, tg, guest, rd)
		if t.Failed() {
			t.Fatalf("diverged at move %d", m)
		}
	}
	if shared == 0 {
		t.Fatal("no move had an edge between two moved guests")
	}
}

// touchedOracle lists the edges incident to the guests, each once, in
// the order a walk of each guest's edges in turn meets them, and counts
// those whose two endpoints both move.
func touchedOracle(tg *taskgraph.Graph, guests []int32) (edges []int32, both int) {
	moved := map[int]bool{}
	for _, g := range guests {
		moved[int(g)] = true
	}
	seen := map[int]bool{}
	for _, g := range guests {
		for e, ed := range tg.Edges {
			if (ed[0] == int(g) || ed[1] == int(g)) && !seen[e] {
				seen[e] = true
				edges = append(edges, int32(e))
				if moved[ed[0]] && moved[ed[1]] {
					both++
				}
			}
		}
	}
	return edges, both
}

// TestLoadStateCompactGuard pins the 32-bit overflow guard: a host at
// or past 2^31 nodes must fail with a clear error before any host-sized
// allocation.
func TestLoadStateCompactGuard(t *testing.T) {
	huge := New(grid.MeshSpec(1<<16, 1<<16)) // 2^32 nodes
	_, err := NewLoadState(huge, taskgraph.Pipeline(3), Placement{0, 1, 2})
	if err == nil {
		t.Fatal("NewLoadState accepted a 2^32-node host")
	}
	if want := "2^31"; !strings.Contains(err.Error(), want) {
		t.Fatalf("guard error %q does not mention %q", err, want)
	}
}

// TestLoadStateStripedInitParity builds a LoadState on a pool of four
// workers, so the accumulator splits the edges into many blocks routed
// into several stripes, and pins it to the full batch measurements
// taken on one worker — the bit-for-bit identity of the parallel merge.
func TestLoadStateStripedInitParity(t *testing.T) {
	host := grid.MeshSpec(16, 16, 16)
	guest := grid.TorusSpec(16, 16, 16)
	nw := New(host)
	tg := taskgraph.FromSpec(guest)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rd := host.NewRankDistancer()
	rng := rand.New(rand.NewSource(31))
	p := Placement(rng.Perm(nw.Size()))
	ls, err := NewLoadState(nw, tg, p)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(1)
	assertParity(t, ls, nw, tg, guest, rd)
}

// TestCongestionHops pins the route-length histogram against per-edge
// distances measured directly, and its stats against Congestion.
func TestCongestionHops(t *testing.T) {
	for _, tc := range parityCases {
		nw := New(tc.host)
		tg := taskgraph.FromSpec(tc.guest)
		rng := rand.New(rand.NewSource(17))
		p := Placement(rng.Perm(nw.Size())[:tg.N])
		stats, hist, err := CongestionHops(nw, tg, p)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Congestion(nw, tg, p)
		if err != nil {
			t.Fatal(err)
		}
		if stats != plain {
			t.Fatalf("%s on %s: stats with histogram %+v, without %+v", tc.guest, tc.host, stats, plain)
		}
		want := map[int]int{}
		for _, e := range tg.Edges {
			_, hops := routeRef(nw, p[e[0]], p[e[1]])
			want[len(hops)]++
		}
		if len(hist) != len(want) {
			t.Fatalf("%s on %s: histogram %v, want %v", tc.guest, tc.host, hist, want)
		}
		for d, n := range want {
			if hist[d] != n {
				t.Fatalf("%s on %s: hist[%d] = %d, want %d", tc.guest, tc.host, d, hist[d], n)
			}
		}
	}
}

// BenchmarkCongestion compares the dense link-rank accumulator against
// the map-based reference walk on a mid-size pair.
func BenchmarkCongestion(b *testing.B) {
	nw := New(grid.TorusSpec(16, 16))
	tg := taskgraph.FromSpec(grid.MeshSpec(16, 16))
	rng := rand.New(rand.NewSource(3))
	p := Placement(rng.Perm(nw.Size()))
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Congestion(nw, tg, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			congestionRef(nw, tg, p)
		}
	})
}
