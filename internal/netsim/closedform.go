package netsim

// This file is the closed form of congestion: for an embedding whose
// digit kernel Bijective proves a bijection, the loads of routing every
// guest edge follow from routing the Σ l_i axis edges of one slice per
// guest axis, the way DigitKernel.EdgeDilation gets the dilation from
// the same axis images. EmbeddingCongestion and NewEmbeddingLoadState
// take it whenever it applies and route everything else.

import (
	"slices"
	"sync"

	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/taskgraph"
)

// Guest is a grid guest as the congestion passes take it: its spec,
// plus the edge list a routing pass reads and the incidence lists a
// LoadState walks, each built on first use and then shared by every
// caller, concurrent ones included. The closed form reads neither, so
// a guest whose every measurement takes it never builds them.
type Guest struct {
	Spec grid.Spec

	graphOnce sync.Once
	graph     *taskgraph.Graph
	incOnce   sync.Once
	incOff    []int32
	incEdges  []int32
}

// NewGuest returns the guest of spec sp. It allocates nothing
// proportional to the node count.
func NewGuest(sp grid.Spec) *Guest { return &Guest{Spec: sp} }

// Graph returns the guest's task graph, taskgraph.FromSpec of its
// spec, built on the first call.
func (g *Guest) Graph() *taskgraph.Graph {
	g.graphOnce.Do(func() { g.graph = taskgraph.FromSpec(g.Spec) })
	return g.graph
}

// incidence returns the guest's packed incidence lists
// (taskgraph.Graph.Incidence), built on the first call. A LoadState
// only reads them, so every load state of one guest shares one copy.
func (g *Guest) incidence() (off, edges []int32) {
	g.incOnce.Do(func() { g.incOff, g.incEdges = g.Graph().Incidence() })
	return g.incOff, g.incEdges
}

// EmbeddingCongestion is CongestionHops of the guest's edges under the
// embedding's own placement: the congestion stats and the route-length
// histogram, left dense so a caller that reads only the stats allocates
// no map. When the embedding's digit kernel is a proved bijection the
// closed form answers from its axis images, with no edge list and no
// table. Any other embedding, a reduction or a table included, is
// routed by the accumulator over the embedding's table, read in place
// when the embedding has one. The closed form counts the integers the
// pass counts, so both routes return the same values.
func EmbeddingCongestion(nw *Network, g *Guest, e *embed.Embedding) (CongestionStats, HopHistogram, error) {
	if cf := nw.closedForm(g.Spec, e); cf != nil {
		return cf.stats, cf.distHist, nil
	}
	t, err := nw.measure(g.Graph(), sharedPlacement(e))
	if err != nil {
		return CongestionStats{}, nil, err
	}
	return t.stats(), t.distHist, nil
}

// NewEmbeddingLoadState is NewLoadState for the embedding's own
// placement of the guest, with the guest's shared incidence lists. A
// proved bijection's loads are tiled from the closed form's slices
// instead of routed; the placement is validated either way.
func NewEmbeddingLoadState(nw *Network, g *Guest, e *embed.Embedding) (*LoadState, error) {
	return newLoadState(nw, g.Graph(), g.incidence, sharedPlacement(e), nw.closedForm(g.Spec, e))
}

// sharedPlacement is the embedding's table as a placement the passes
// only read: the embedding's own table when its kernel is one, without
// a copy, else a fresh materialization.
func sharedPlacement(e *embed.Embedding) Placement {
	if t, ok := e.Kernel().(embed.Table); ok {
		return Placement(t)
	}
	return Placement(e.Table())
}

// axisSlice is one guest axis's origin slice: the directed links its
// routes cross and the load on each.
type axisSlice struct {
	stride int     // the axis's row-major stride in guest ranks
	length int     // the axis length l_i
	links  []int   // link ranks, ascending
	loads  []int32 // loads[k] = routes crossing links[k]
}

// closedForm is the congestion of a proved bijection, derived from its
// origin slices: the aggregates of the full routing pass, and the
// slices the tiled load array is written from.
type closedForm struct {
	axes     []axisSlice
	stats    CongestionStats
	distHist []int32 // distHist[d] = guest edges routed at distance d
	distSum  int64   // one-way route lengths summed
}

// closedForm measures routing g's edges under e's own placement by the
// closed form, or returns nil when it does not apply: e's kernel is not
// a digit kernel Bijective proves a bijection, or e's shapes are not
// g's and the network's. Only that proof selects it.
//
// Such a kernel moves a set D_i of host digits with guest axis i, and
// no other axis moves them. An axis-i edge changes only D_i digits, so
// its route corrects only D_i axes. The slice through a guest node x
// with x_i = 0, which varies axis i and fixes the rest, is the origin
// slice translated by the host rank p(x) - p(0). That offset has no D_i
// digits and adds no carry, so dimension-ordered routes translate with
// the slice, and each of axis i's N/l_i slices carries the origin
// slice's loads, shifted. The links along D_i carry axis-i routes only.
// The origin slice's edges are the steps v -> v+1 of axis i's images,
// plus the wrap l_i-1 -> 0 when g is a torus and l_i > 2: the axis-i
// edges grid.Spec.VisitEdges enumerates through the origin. Routing
// both directions of those Σ l_i edges gives every aggregate:
//
//   - MaxLink is the largest slice load;
//   - TotalHops is Σ_i (N/l_i) × slice hops;
//   - UsedLinks is Σ_i (N/l_i) × the slice's distinct links;
//   - the hop histogram is Σ_i (N/l_i) × the slice histogram.
func (nw *Network) closedForm(g grid.Spec, e *embed.Embedding) *closedForm {
	k := e.Digits()
	if k == nil || !g.Shape.Equal(e.From.Shape) || !nw.shape.Equal(e.To.Shape) {
		return nil
	}
	rows := k.AxisImages()
	if rows == nil {
		return nil
	}
	n := g.Size()
	torus := g.Kind == grid.Torus
	cf := &closedForm{axes: make([]axisSlice, len(rows)), distHist: make([]int32, nw.diameter()+1)}
	spans := make([]span, 0, 4*len(nw.shape))
	stride := n
	for i, row := range rows {
		l := len(row)
		mult := n / l
		stride /= l
		// Room for both directions of every edge at distance 2 or less,
		// the dilation of most proved bijections.
		ranks := make([]int, 0, 4*l)
		hops := 0
		edge := func(a, b int) {
			var d int
			spans, d = nw.route(spans[:0], a, b)
			spans, _ = nw.route(spans, b, a)
			for _, sp := range spans {
				for r, k := sp.first, 0; k < sp.n; r, k = r+sp.step, k+1 {
					ranks = append(ranks, r)
				}
			}
			hops += d
			cf.distHist[d] += int32(mult)
		}
		for v := 0; v+1 < l; v++ {
			edge(row[v], row[v+1])
		}
		if torus && l > 2 {
			edge(row[l-1], row[0])
		}
		// Sorted, the ranks of one link are adjacent: count the runs,
		// then compact each run in place into a link and its load.
		slices.Sort(ranks)
		distinct := 0
		for j := range ranks {
			if j == 0 || ranks[j] != ranks[j-1] {
				distinct++
			}
		}
		ax := axisSlice{stride: stride, length: l, links: ranks[:0], loads: make([]int32, 0, distinct)}
		for _, r := range ranks {
			if k := len(ax.links) - 1; k >= 0 && ax.links[k] == r {
				ax.loads[k]++
				continue
			}
			ax.links = append(ax.links, r)
			ax.loads = append(ax.loads, 1)
		}
		for _, v := range ax.loads {
			cf.stats.MaxLink = max(cf.stats.MaxLink, int(v))
		}
		cf.axes[i] = ax
		cf.stats.TotalHops += 2 * mult * hops
		cf.stats.UsedLinks += mult * distinct
		cf.distSum += int64(mult) * int64(hops)
	}
	return cf
}

// tile is the tally the accumulator leaves for p, the placement of the
// closed form's embedding, with every load written from the slices
// instead of routed. The slice of axis i through guest node x lies
// p[x] - p[0] host ranks above the origin slice, so its link ranks lie
// (p[x] - p[0])·2·Dim above. No two slices share a link, so each link
// is written once: O(used links) writes and no route.
func (nw *Network) tile(cf *closedForm, p Placement) tally {
	t := tally{load: make([]int32, nw.LinkSlots()), distHist: cf.distHist, hops: cf.stats.TotalHops, distSum: cf.distSum}
	dirs := nw.lr.Rank(1, 0, false) // link ranks per node
	for _, ax := range cf.axes {
		block := ax.length * ax.stride
		// The guest ranks with coordinate 0 on the axis: the first
		// stride ranks of every block.
		for lo := 0; lo < len(p); lo += block {
			for _, h := range p[lo : lo+ax.stride] {
				shift := (h - p[0]) * dirs
				for k, r := range ax.links {
					t.load[r+shift] = ax.loads[k]
				}
			}
		}
	}
	return t
}
