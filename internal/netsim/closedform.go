package netsim

// This file is the closed form of congestion: for an embedding whose
// digit kernel Bijective proves a bijection, the loads of routing every
// guest edge follow from the edges of one origin slice per component
// (embed.Component), |C| points each, inside the component's fiber,
// the way DigitKernel.EdgeDilation gets the dilation from the axis
// images. A single-axis component's slice is one guest axis's l_i
// images; a component of every axis has the whole host as its fiber.
// The slice's edges fall into classes, one per (axis, step), whose
// edges all move by the same fiber offset, so each class is routed once
// and shifted, except where a torus route wraps. Every digit
// construction of the paper is such a bijection. EmbeddingCongestion
// and NewEmbeddingLoadState take the closed form whenever it applies
// and route everything else.

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
// table; every digit construction of the paper is one. Any other
// embedding, an annealed table or a kernel that is not one proved digit
// kernel, is routed by the accumulator over the embedding's table, read
// in place when the embedding has one. The closed form counts the integers the
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
// proved bijection's aggregates come from the closed form, and its link
// array is tiled from the closed form's slices instead of routed, on
// the state's first Evaluate; the placement is validated either way.
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

// slice is one component's origin slice — the guest nodes that are 0
// off the component's axes — routed inside the component's fiber: the
// host nodes that agree with the origin's image off the host axes the
// component moves, one slice point per fiber node. The fiber is a
// network of its own, of the host's kind, whose axes are those host
// axes in order, so the router's routes between fiber nodes are the
// host's routes, link for link, and the slice's loads take
// |C|·2·|D_C| slots instead of the host's.
type slice struct {
	axes     []int    // the component's guest axes, ascending
	fiber    *Network // the fiber through the origin's image
	hostAxes []int    // fiber axis q is host axis hostAxes[q]
	corner   int      // the host rank of fiber node 0
	load     []int32  // load[r] = slice routes crossing fiber link r
	used     int      // fiber links with a nonzero load
}

// closedForm is the congestion of a proved bijection, derived from its
// origin slices: the aggregates of the full routing pass, and the
// slices the tiled load array is written from.
type closedForm struct {
	guest    grid.Shape
	slices   []slice
	stats    CongestionStats
	distHist []int32 // distHist[d] = guest edges routed at distance d
	distSum  int64   // one-way route lengths summed
}

// closedForm measures routing g's edges under e's own placement by the
// closed form, or returns nil when it does not apply: e's kernel is not
// a digit kernel Bijective proves a bijection, or e's shapes are not
// g's and the network's. Only that proof selects it.
//
// Such a kernel is a product over its components (embed.Component):
// component C moves a set D_C of host digits, and no other component
// moves them. An edge on one of C's axes changes only D_C digits, so
// its route corrects only D_C axes and stays in the fiber that fixes
// every other host coordinate. The slice through a guest node x that
// is 0 on C's axes is the origin slice translated by the host rank
// p(x) - p(0). That offset has no D_C digits and adds no carry, so
// dimension-ordered routes translate with the slice, and each of C's
// N/|C| slices carries the origin slice's loads, shifted. The links
// along D_C carry C's routes only. The origin slice's edges are, on
// each of C's axes, the steps v -> v+1 from every point, plus the wrap
// l-1 -> 0 when g is a torus and l > 2: the edges of C's axes that
// grid.Spec.VisitEdges enumerates inside the slice. Routing both
// directions of them gives every aggregate:
//
//   - MaxLink is the largest slice load;
//   - TotalHops is Σ_C (N/|C|) × slice hops;
//   - UsedLinks is Σ_C (N/|C|) × the slice's distinct links;
//   - the hop histogram is Σ_C (N/|C|) × the slice histogram.
//
// The slice's edges are not routed one by one. A class is one step of
// one axis q of C, v -> v+1 or the wrap: its edges start at the slice
// points with coordinate v on q, which are the class's origin-slice
// point plus the fiber offsets σ of the other axes' coordinates
// (sliceOffsets). The kernel is carry-free, so every edge of the class
// moves by the same fiber-digit offset, and class routes each
// direction once and shifts it by σ (slice.class). A class adds its
// distance times its |C|/l_q edges to the slice hops, and N/l_q edges
// to its distance's bucket.
func (nw *Network) closedForm(g grid.Spec, e *embed.Embedding) *closedForm {
	k := e.Digits()
	if k == nil || !g.Shape.Equal(e.From.Shape) || !nw.shape.Equal(e.To.Shape) {
		return nil
	}
	comps := k.Components()
	if comps == nil {
		return nil
	}
	n := g.Size()
	torus := g.Kind == grid.Torus
	cf := &closedForm{guest: g.Shape, slices: make([]slice, len(comps)), distHist: make([]int32, nw.diameter()+1)}
	// One allocation each for every slice's loads, for the fiber ranks
	// of one component's images at a time, and for the offsets of one
	// axis's classes at a time: a fiber of |C| nodes has |C|/l slice
	// points with coordinate v on an axis of length l.
	slots, width, offsets := 0, 0, 0
	for ci, c := range comps {
		s := &cf.slices[ci]
		s.axes, s.hostAxes, s.fiber = c.Axes, c.HostAxes, nw.fiber(c.HostAxes)
		slots += s.fiber.LinkSlots()
		imgs := 0
		for _, img := range c.Images {
			imgs += len(img)
			offsets = max(offsets, s.fiber.Size()/len(img))
		}
		width = max(width, imgs)
	}
	loads, flat := make([]int32, slots), make([]int, width)
	offs := make([]int, 0, offsets)
	var rows [maxAxes][]int
	for ci, c := range comps {
		s := &cf.slices[ci]
		s.load, loads = loads[:s.fiber.LinkSlots()], loads[s.fiber.LinkSlots():]
		m := len(c.Images)
		s.corner = nw.fiberRows(c, s.fiber, rows[:m], flat)
		mult := n / s.fiber.Size()
		hops := 0
		class := func(a, b int) {
			d := s.class(a, b, offs)
			hops += d * len(offs)
			cf.distHist[d] += int32(mult * len(offs))
		}
		// The classes of axis q: each step v -> v+1, and the wrap, from
		// every slice point with coordinate v on q, the class's point
		// plus one offset of offs.
		for q, row := range rows[:m] {
			offs = sliceOffsets(offs, rows[:m], q)
			l := len(row)
			for v := 0; v+1 < l; v++ {
				class(row[v], row[v+1])
			}
			if torus && l > 2 {
				class(row[l-1], row[0])
			}
		}
		for _, v := range s.load {
			if v > 0 {
				s.used++
				cf.stats.MaxLink = max(cf.stats.MaxLink, int(v))
			}
		}
		cf.stats.TotalHops += 2 * mult * hops
		cf.stats.UsedLinks += mult * s.used
		cf.distSum += int64(mult) * int64(hops)
	}
	return cf
}

// sliceOffsets returns, in dst's storage, the fiber-rank offsets σ of
// the slice points that are 0 on axis q, 0 first: every sum of one
// image offset row[v] - row[0] from each other axis's row. dst must
// have room for all |C|/l_q of them, so appending never reallocates.
func sliceOffsets(dst []int, rows [][]int, q int) []int {
	dst = append(dst[:0], 0)
	for p, row := range rows {
		if p == q {
			continue
		}
		n := len(dst)
		for _, img := range row[1:] {
			o := img - row[0]
			for _, s := range dst[:n] {
				dst = append(dst, s+o)
			}
		}
	}
	return dst
}

// class routes one edge class of the slice, both ways, into its loads
// and returns the class's distance: the guest edges from fiber node
// a+σ to b+σ for every offset σ of offs, which starts with 0. The
// kernel is carry-free, so a+σ and b+σ differ by b-a on every fiber
// axis, as a and b do, and the router turns the same way on each. A
// route that wraps no torus axis is then the route from a shifted by
// σ, its link ranks σ·2·Dim higher: it is routed once. One that wraps
// an axis (wraps) turns where that axis ends, which the shift moves,
// so each source is routed.
func (s *slice) class(a, b int, offs []int) (dist int) {
	f := s.fiber
	dirs := f.lr.Rank(1, 0, false) // link ranks per node
	var buf [8]span                // one route of up to four axes stays on the stack
	for _, e := range [2][2]int{{a, b}, {b, a}} {
		spans, d := f.route(buf[:0], e[0], e[1])
		dist = d // the same both ways
		if f.wraps(e[0], e[1]) {
			s.add(spans, 0)
			for _, o := range offs[1:] {
				spans, _ = f.route(buf[:0], e[0]+o, e[1]+o)
				s.add(spans, 0)
			}
			continue
		}
		for _, o := range offs {
			s.add(spans, o*dirs)
		}
	}
	return dist
}

// add adds one to the load of every link of spans, shifted shift link
// ranks up.
func (s *slice) add(spans []span, shift int) {
	for _, sp := range spans {
		for r, k := sp.first+shift, 0; k < sp.n; r, k = r+sp.step, k+1 {
			s.load[r]++
		}
	}
}

// maxAxes bounds the axes of a proved bijection's guest and host: the
// digit-kernel analysis proves nothing past 32 of either.
const maxAxes = 32

// fiber returns the network of the host axes in axes, ascending, of the
// host's kind: the fiber a closed-form slice routes in, the host itself
// when axes are all of its axes. Fibers are built on first use and
// shared, like the coordinate table, so a census builds each one once
// per host, not once per pair.
func (nw *Network) fiber(axes []int) *Network {
	if len(axes) == len(nw.shape) {
		return nw
	}
	var key uint64
	for _, j := range axes {
		key |= 1 << j
	}
	nw.fiberMu.Lock()
	defer nw.fiberMu.Unlock()
	f := nw.fibers[key]
	if f == nil {
		shape := make(grid.Shape, len(axes))
		for q, j := range axes {
			shape[q] = nw.shape[j]
		}
		f = New(grid.Spec{Kind: nw.Spec.Kind, Shape: shape})
		if nw.fibers == nil {
			nw.fibers = make(map[uint64]*Network)
		}
		nw.fibers[key] = f
	}
	return f
}

// fiberRows writes component c's axis images as fiber ranks into rows,
// backed by flat: rows[q][v] is the fiber rank of c.Images[q][v], the
// image's coordinates on the fiber's axes. The kernel is carry-free, so
// a point's fiber rank is the origin's plus its axes' offsets, as its
// host rank is. It returns the host rank of fiber node 0, the origin's
// image with its fiber coordinates zeroed.
func (nw *Network) fiberRows(c embed.Component, fiber *Network, rows [][]int, flat []int) (corner int) {
	var coordBuf [maxAxes]int
	coord := grid.Node(coordBuf[:len(nw.shape)])
	for q, img := range c.Images {
		rows[q], flat = flat[:len(img):len(img)], flat[len(img):]
		for v, h := range img {
			nw.shape.NodeInto(coord, h)
			f := 0
			for p, j := range c.HostAxes {
				f += coord[j] * fiber.strides[p]
			}
			rows[q][v] = f
		}
	}
	corner = c.Images[0][0]
	nw.shape.NodeInto(coord, corner)
	for _, j := range c.HostAxes {
		corner -= coord[j] * nw.strides[j]
	}
	return corner
}

// tile is the tally the accumulator leaves for p, the placement table of
// the closed form's embedding, with every load written from the slices
// instead of routed. Component C's slice through guest node x lies
// p[x] - p[0] host ranks above the origin slice, so its link ranks lie
// (p[x] - p[0])·2·Dim above. No two slices share a link, so each link
// is written once: O(used links) writes and no route. The translates,
// the guest ranks that are 0 on C's axes, are walked by odometer over
// the other axes, with no division.
func (nw *Network) tile(cf *closedForm, p []int32) tally {
	t := tally{load: make([]int32, nw.LinkSlots()), distHist: cf.distHist, hops: cf.stats.TotalHops, distSum: cf.distSum}
	dirs := nw.lr.Rank(1, 0, false) // link ranks per node
	used := 0
	for _, s := range cf.slices {
		used = max(used, s.used)
	}
	links, loads := make([]int, 0, used), make([]int32, 0, used)
	var strides [maxAxes]int
	for i, st := len(cf.guest)-1, 1; i >= 0; i-- {
		strides[i] = st
		st *= cf.guest[i]
	}
	for _, s := range cf.slices {
		links, loads = s.hostLinks(nw, links[:0], loads[:0])
		// The guest axes off the component: their lengths, rank strides
		// and odometer digits.
		var length, stride, digit [maxAxes]int
		m := 0
		for i, l := range cf.guest {
			if !slices.Contains(s.axes, i) {
				length[m], stride[m] = l, strides[i]
				m++
			}
		}
		for x := 0; ; {
			shift := int(p[x]-p[0]) * dirs
			for k, r := range links {
				t.load[r+shift] = loads[k]
			}
			q := m - 1
			for ; q >= 0; q-- {
				x += stride[q]
				if digit[q]++; digit[q] < length[q] {
					break
				}
				x -= digit[q] * stride[q]
				digit[q] = 0
			}
			if q < 0 {
				break
			}
		}
	}
	return t
}

// hostLinks appends the host link rank and load of every link the
// origin slice loads. Fiber node f is the host node corner plus f's
// fiber coordinates along the host axes.
func (s *slice) hostLinks(nw *Network, links []int, loads []int32) ([]int, []int32) {
	co, fd := s.fiber.coordTable(), len(s.hostAxes)
	for f := range s.fiber.Size() {
		node := s.corner
		for q, j := range s.hostAxes {
			node += int(co[f*fd+q]) * nw.strides[j]
		}
		for q, j := range s.hostAxes {
			for _, neg := range [2]bool{false, true} {
				if v := s.load[s.fiber.lr.Rank(f, q, neg)]; v > 0 {
					links = append(links, nw.lr.Rank(node, j, neg))
					loads = append(loads, v)
				}
			}
		}
	}
	return links, loads
}
