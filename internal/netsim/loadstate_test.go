package netsim

import (
	"math/rand"
	"runtime"
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
// swaps and multi-node permutations and checks after every move that
// all incrementally maintained aggregates equal a from-scratch
// measurement — the property the annealing pass's correctness rests on.
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
		for m := 0; m < moves; m++ {
			if rng.Intn(3) > 0 {
				u := rng.Intn(tg.N)
				v := rng.Intn(tg.N - 1)
				if v >= u {
					v++
				}
				ls.Swap(u, v)
				if ls.GuestAt(ls.HostOf(u)) != u || ls.GuestAt(ls.HostOf(v)) != v {
					t.Fatalf("%s on %s: inverse map broken after swap", tc.guest, tc.host)
				}
			} else {
				// Rotate a random handful of guests through each other's
				// hosts — the shape of the reversal/block moves.
				k := 2 + rng.Intn(4)
				guests := make([]int32, 0, k)
				seen := map[int32]bool{}
				for len(guests) < k {
					g := int32(rng.Intn(tg.N))
					if !seen[g] {
						seen[g] = true
						guests = append(guests, g)
					}
				}
				hosts := make([]int32, k)
				for i, g := range guests {
					hosts[i] = int32(ls.HostOf(int(guests[(i+1)%k])))
					_ = g
				}
				ls.Permute(guests, hosts)
			}
			assertParity(t, ls, nw, tg, tc.guest, rd)
			if t.Failed() {
				t.Fatalf("%s on %s: diverged at move %d", tc.guest, tc.host, m)
			}
		}
		if err := ls.Recheck(); err != nil {
			t.Fatal(err)
		}
	}
}

func assertParity(t *testing.T, ls *LoadState, nw *Network, tg *taskgraph.Graph, guest grid.Spec, rd *grid.RankDistancer) {
	t.Helper()
	tab := make([]int, tg.N)
	ls.CopyTableInto(tab)
	want, err := Congestion(nw, tg, Placement(tab))
	if err != nil {
		t.Fatal(err)
	}
	if got := ls.Stats(); got != want {
		t.Errorf("stats: incremental %+v, full %+v", got, want)
	}
	wantMax, wantAvg := guest.EdgeDilation(tab, rd)
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
// side by side at unit length, then one Permute folds them so that all
// cross the middle link (load 10) and the outermost routes 19 hops. The
// aggregates must stay exact through the growth and back.
func TestLoadStateHistogramGrowth(t *testing.T) {
	nw := New(grid.LineSpec(20))
	tg := &taskgraph.Graph{Name: "folded", N: 20}
	for i := 0; i < 10; i++ {
		tg.Edges = append(tg.Edges, [2]int{i, 19 - i})
	}
	side := make(Placement, 20) // edge i on hosts 2i and 2i+1
	guests := make([]int32, 20)
	folded := make([]int32, 20) // guest g on host g
	for i := 0; i < 10; i++ {
		side[i], side[19-i] = 2*i, 2*i+1
	}
	for g := range guests {
		guests[g], folded[g] = int32(g), int32(g)
	}
	ls, err := NewLoadState(nw, tg, side)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ls.loadHist); got != 8 {
		t.Fatalf("unit-load placement starts with %d load buckets, want 8", got)
	}
	ls.Permute(guests, folded)
	if len(ls.loadHist) <= 8 {
		t.Fatalf("load histogram did not grow: %d buckets", len(ls.loadHist))
	}
	if got := ls.Stats(); got.MaxLink != 10 {
		t.Fatalf("MaxLink = %d, want 10 (all edges cross the middle link)", got.MaxLink)
	}
	if max, _ := ls.Dilation(); max != 19 {
		t.Fatalf("max distance = %d, want 19", max)
	}
	if err := ls.Recheck(); err != nil {
		t.Fatal(err)
	}
	// Unfold one long edge and re-fold it: growth bookkeeping must
	// survive decrements back below the original array sizes.
	ls.Swap(0, 19)
	ls.Swap(0, 19)
	if err := ls.Recheck(); err != nil {
		t.Fatal(err)
	}
	if max, _ := ls.Dilation(); max != 19 {
		t.Fatalf("max distance after swaps = %d, want 19", max)
	}
}

// TestLoadStateCompactGuard pins the 32-bit overflow guard: forcing the
// compact table on a host at or past 2^31 nodes must fail with a clear
// error before any host-sized allocation, while ordinary hosts default
// to compact and can be forced wide.
func TestLoadStateCompactGuard(t *testing.T) {
	huge := New(grid.MeshSpec(1<<16, 1<<16)) // 2^32 nodes
	tg := taskgraph.Pipeline(3)
	_, err := NewLoadStateMode(huge, tg, Placement{0, 1, 2}, ModeCompact)
	if err == nil {
		t.Fatal("ModeCompact accepted a 2^32-node host")
	}
	if want := "2^31"; !strings.Contains(err.Error(), want) {
		t.Fatalf("guard error %q does not mention %q", err, want)
	}

	small := New(grid.LineSpec(8))
	auto, err := NewLoadState(small, tg, Placement{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !auto.Compact() {
		t.Error("ModeAuto picked the wide table on an 8-node host")
	}
	wide, err := NewLoadStateMode(small, tg, Placement{0, 1, 2}, ModeWide)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Compact() {
		t.Error("ModeWide produced a compact table")
	}
	if wb, cb := wide.TableBytes(), auto.TableBytes(); cb*2 != wb {
		t.Errorf("table bytes: compact %d, wide %d, want exactly half", cb, wb)
	}
}

// TestLoadStateCompactWideParity drives a compact and a wide LoadState
// through the same randomized move sequence and requires bit-identical
// aggregates and tables after every move — the property that makes the
// table width invisible to the annealing pass.
func TestLoadStateCompactWideParity(t *testing.T) {
	nw := New(grid.TorusSpec(4, 4))
	tg := taskgraph.FromSpec(grid.MeshSpec(4, 4))
	rng := rand.New(rand.NewSource(41))
	p := Placement(rng.Perm(nw.Size()))
	compact, err := NewLoadStateMode(nw, tg, p, ModeCompact)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewLoadStateMode(nw, tg, p, ModeWide)
	if err != nil {
		t.Fatal(err)
	}
	if !compact.Compact() || wide.Compact() {
		t.Fatal("modes not honored")
	}
	tabC := make([]int, tg.N)
	tabW := make([]int, tg.N)
	check := func(m int) {
		t.Helper()
		if cs, ws := compact.Stats(), wide.Stats(); cs != ws {
			t.Fatalf("move %d: stats diverged: compact %+v, wide %+v", m, cs, ws)
		}
		cm, ca := compact.Dilation()
		wm, wa := wide.Dilation()
		if cm != wm || ca != wa {
			t.Fatalf("move %d: dilation diverged: compact (%d, %v), wide (%d, %v)", m, cm, ca, wm, wa)
		}
		compact.CopyTableInto(tabC)
		wide.CopyTableInto(tabW)
		for g := range tabC {
			if tabC[g] != tabW[g] {
				t.Fatalf("move %d: table diverged at guest %d: compact %d, wide %d", m, g, tabC[g], tabW[g])
			}
		}
	}
	check(-1)
	for m := 0; m < 50; m++ {
		if rng.Intn(2) == 0 {
			u := rng.Intn(tg.N)
			v := rng.Intn(tg.N - 1)
			if v >= u {
				v++
			}
			compact.Swap(u, v)
			wide.Swap(u, v)
		} else {
			k := 2 + rng.Intn(4)
			perm := rng.Perm(tg.N)[:k]
			guests := make([]int32, k)
			hosts := make([]int32, k)
			for i, g := range perm {
				guests[i] = int32(g)
			}
			for i := range guests {
				hosts[i] = int32(compact.HostOf(int(guests[(i+1)%k])))
			}
			compact.Permute(guests, hosts)
			wide.Permute(guests, hosts)
		}
		check(m)
	}
	if err := compact.Recheck(); err != nil {
		t.Fatal(err)
	}
	if err := wide.Recheck(); err != nil {
		t.Fatal(err)
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
