package netsim

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"torusmesh/internal/grid"
	"torusmesh/internal/taskgraph"
)

// refHop is one hop of the reference walk: the directed link leaving
// node from along axis dim, toward decreasing coordinates when neg.
type refHop struct {
	from, dim int
	neg       bool
}

// routeRef is the router's independent oracle: the hop-by-hop walk the
// production router replaced. It decodes both endpoints by division,
// re-decides the direction on every hop (shorter way round on a torus,
// ties toward +1) and steps with a modulo, using nothing of Network but
// its spec. It returns the node path, both endpoints included, and the
// links crossed in order.
func routeRef(nw *Network, src, dst int) (path []int, hops []refHop) {
	sh := nw.Spec.Shape
	cur, target := sh.NodeAt(src), sh.NodeAt(dst)
	path = append(path, src)
	for j, l := range sh {
		for cur[j] != target[j] {
			step := 1
			diff := target[j] - cur[j]
			if nw.Spec.Kind == grid.Torus {
				if forward := (diff + l) % l; forward > l-forward {
					step = -1
				}
			} else if diff < 0 {
				step = -1
			}
			hops = append(hops, refHop{sh.Index(cur), j, step < 0})
			cur[j] = (cur[j] + step + l) % l
			path = append(path, sh.Index(cur))
		}
	}
	return path, hops
}

// Route returns the router's dimension-ordered path from src to dst as
// router indices, both endpoints included: the source node of every
// link of the route's spans in order, then dst. In each dimension the
// torus variant walks around the shorter way; the mesh variant walks
// monotonically. Dimension-ordered routing on these topologies is
// minimal, so the path length equals the graph distance of Lemmas 5
// and 6.
func (nw *Network) Route(src, dst int) []int {
	spans, hops := nw.route(nil, src, dst)
	path := make([]int, 0, hops+1)
	for _, sp := range spans {
		for r, k := sp.first, 0; k < sp.n; r, k = r+sp.step, k+1 {
			node, _, _ := nw.lr.Unrank(r)
			path = append(path, node)
		}
	}
	return append(path, dst)
}

// congestionRef is the reference congestion measurement: per-link loads
// in a map keyed by the reference walk's links. It returns the stats and
// the loads.
func congestionRef(nw *Network, tg *taskgraph.Graph, p Placement) (CongestionStats, map[refHop]int) {
	load := map[refHop]int{}
	stats := CongestionStats{}
	count := func(src, dst int) {
		_, hops := routeRef(nw, src, dst)
		stats.TotalHops += len(hops)
		for _, h := range hops {
			load[h]++
		}
	}
	for _, e := range tg.Edges {
		count(p[e[0]], p[e[1]])
		count(p[e[1]], p[e[0]])
	}
	for _, v := range load {
		stats.UsedLinks++
		stats.MaxLink = max(stats.MaxLink, v)
	}
	return stats, load
}

// routerSpecs are small networks covering every branch of the routing
// rule. Spec literals bypass validation so that axes of length 1 can
// appear.
var routerSpecs = []grid.Spec{
	grid.RingSpec(6),           // 1-D, even: forward == 3 ties
	grid.RingSpec(5),           // 1-D, odd: no ties
	grid.LineSpec(5),           // 1-D mesh
	grid.TorusSpec(4, 3),       // even and odd torus axes
	grid.TorusSpec(2, 3, 2),    // length-2 torus axes: every step is a tie
	grid.MeshSpec(3, 2, 4),     // mesh, both directions on every axis
	grid.TorusSpec(4, 2, 2, 3), // 4-D torus
	{Kind: grid.Torus, Shape: grid.Shape{3, 1, 4}},
	{Kind: grid.Mesh, Shape: grid.Shape{1, 5, 1}},
}

// TestRouterMatchesReference checks every ordered src/dst pair of every
// router spec against the reference walk: Route's node path, and the
// router's link-rank progressions expanded hop by hop.
func TestRouterMatchesReference(t *testing.T) {
	for _, sp := range routerSpecs {
		nw := New(sp)
		for src := 0; src < nw.Size(); src++ {
			for dst := 0; dst < nw.Size(); dst++ {
				wantPath, wantHops := routeRef(nw, src, dst)
				if got := nw.Route(src, dst); !slices.Equal(got, wantPath) {
					t.Fatalf("%s: Route(%d, %d) = %v, reference %v", sp, src, dst, got, wantPath)
				}
				spans, hops := nw.route(nil, src, dst)
				if len(spans) > 2*sp.Dim() {
					t.Fatalf("%s: route %d->%d has %d spans, want <= %d", sp, src, dst, len(spans), 2*sp.Dim())
				}
				var got []int
				for _, s := range spans {
					for r, k := s.first, 0; k < s.n; r, k = r+s.step, k+1 {
						got = append(got, r)
					}
				}
				want := make([]int, len(wantHops))
				for i, h := range wantHops {
					want[i] = nw.lr.Rank(h.from, h.dim, h.neg)
				}
				if hops != len(want) || !slices.Equal(got, want) {
					t.Fatalf("%s: route %d->%d: %d hops over links %v, reference %d over %v",
						sp, src, dst, hops, got, len(want), want)
				}
			}
		}
	}
}

// TestLoadStateLoadsMatchReference routes the complete task graph — so
// every ordered src/dst pair, both directions of every edge — under a
// scrambled placement on every router spec, and checks each per-link
// load of the fresh LoadState, decoded with LinkRanker.Unrank, against
// the reference walk's loads; then the batch stats and the route-length
// histogram.
func TestLoadStateLoadsMatchReference(t *testing.T) {
	for _, sp := range routerSpecs {
		nw := New(sp)
		n := nw.Size()
		tg := &taskgraph.Graph{Name: "complete", N: n}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				tg.Edges = append(tg.Edges, [2]int{u, v})
			}
		}
		p := Placement(rand.New(rand.NewSource(int64(n))).Perm(n))
		ls, err := NewLoadState(nw, tg, p)
		if err != nil {
			t.Fatal(err)
		}
		wantStats, wantLoad := congestionRef(nw, tg, p)
		for rank, got := range ls.load {
			from, dim, neg := nw.lr.Unrank(rank)
			if want := wantLoad[refHop{from, dim, neg}]; int(got) != want {
				t.Fatalf("%s: link %d (node %d, axis %d, neg %v) carries %d routes, reference %d",
					sp, rank, from, dim, neg, got, want)
			}
		}
		if got := ls.Stats(); got != wantStats {
			t.Fatalf("%s: LoadState stats %+v, reference %+v", sp, got, wantStats)
		}
		stats, hist, err := CongestionHops(nw, tg, p)
		if err != nil {
			t.Fatal(err)
		}
		wantHist := map[int]int{}
		for _, e := range tg.Edges {
			_, hops := routeRef(nw, p[e[0]], p[e[1]])
			wantHist[len(hops)]++
		}
		if stats != wantStats || !maps.Equal(hist, wantHist) {
			t.Fatalf("%s: CongestionHops %+v %v, reference %+v %v", sp, stats, hist, wantStats, wantHist)
		}
	}
}
