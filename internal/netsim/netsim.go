// Package netsim is a synchronous interconnection-network simulator used
// to demonstrate the practical content of the paper's dilation metric:
// when a task graph is placed on a torus or mesh machine, the latency of
// a communication phase grows with the maximum hop count of any task
// edge — exactly the dilation of the placement viewed as an embedding.
//
// The model is deliberately simple (the paper's contribution is the
// embeddings, not router microarchitecture): store-and-forward routing,
// one packet per link per cycle, deterministic dimension-ordered paths,
// FIFO arbitration. It is enough to expose both dilation (path length)
// and congestion (link contention) effects.
//
// Every pass routes through one router, Network.route, and the closed
// form below derives its slices from the same router. It reads both
// endpoints' coordinates from a per-network table (built on the first
// route, never by New), fixes each axis's direction and hop count
// once — the shorter way round on a torus, ties toward +1 — and
// returns the route as arithmetic progressions of dense link ranks
// (grid.LinkRanker), at most two per axis because a torus wrap splits
// one. Nothing on that path divides. Its per-axis rule, axisHops, also
// gives a route's length without building it (distance), which is how
// LoadState.Propose measures a move before anything is routed.
// LoadState.Evaluate then routes a move into a per-link delta without
// making it, and LoadState.Apply writes an accepted move's delta, so a
// rejected move is never applied or undone.
//
// On top of the router sits one load accumulator, accumulate: it
// stripes task edges over the internal/par pool into per-worker link
// load slabs and route-length histograms, merges them by index, and
// leaves every aggregate to be derived after the pass. Congestion,
// CongestionHops, NewLoadState, the annealing pass's incremental
// state, and Simulate all start from it. Simulate, the demonstration
// path of the experiments, then runs a timed communication phase
// (cycles to drain, with link arbitration) over the same link ranks.
//
// Beside the pass sits its closed form (closedform.go). An embedding
// whose digit kernel is a proved bijection
// (embed.DigitKernel.Bijective) is a product of its components, groups
// of guest axes that move disjoint host digits, and loads every slice
// of a component alike. So one slice per component, inside the
// component's fiber (a network of the host axes it moves), gives the
// pass's loads and aggregates exactly, and within a slice every edge of
// one (axis, step) class moves by the same offset, so the router runs
// once per class and its route is shifted, except where a torus route
// wraps. Every digit construction of the paper is such a bijection.
// EmbeddingCongestion, the census's congestion column and the placement
// search's scoring backend, takes the closed form whenever the proof
// holds and routes the embedding's table otherwise: an annealed
// placement or another non-digit kernel. NewEmbeddingLoadState, the
// annealing seeds' constructor, takes its aggregates from the closed
// form and tiles the slice loads into its link array, instead of
// routing, on the state's first Evaluate. The passes that take a table
// (Congestion, CongestionHops, NewLoadState) always route, so they stay
// the reference the closed form is tested and re-validated against.
package netsim

import (
	"fmt"
	"math"
	"sync"

	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/taskgraph"
)

// Network is a torus or mesh machine with one router per node.
type Network struct {
	Spec    grid.Spec
	n       int
	shape   grid.Shape
	torus   bool
	strides []int           // row-major rank deltas per dimension
	lr      grid.LinkRanker // dense directed-link ranking

	coordOnce sync.Once
	coords    []int32 // coords[x·Dim+j] = coordinate j of node x; see coordTable

	fiberMu sync.Mutex
	fibers  map[uint64]*Network // by host-axis mask; see fiber
}

// New builds a network from a spec. It allocates nothing proportional
// to the node count: the coordinate table waits for the first route.
func New(sp grid.Spec) *Network {
	return &Network{
		Spec:    sp,
		n:       sp.Size(),
		shape:   sp.Shape,
		torus:   sp.Kind == grid.Torus,
		strides: sp.Shape.Strides(),
		lr:      sp.NewLinkRanker(),
	}
}

// Size returns the number of routers.
func (nw *Network) Size() int { return nw.n }

// LinkSlots returns the size of a dense per-directed-link accumulator
// for this network — the index space the router's link ranks live in.
func (nw *Network) LinkSlots() int { return nw.lr.Slots(nw.n) }

// coordTable returns the row-major coordinates of every node, built by
// an odometer walk on first use and shared by concurrent routers.
func (nw *Network) coordTable() []int32 {
	nw.coordOnce.Do(nw.buildCoords)
	return nw.coords
}

func (nw *Network) buildCoords() {
	d := len(nw.shape)
	co := make([]int32, nw.n*d)
	for x := d; x < len(co); x += d {
		copy(co[x:x+d], co[x-d:x])
		for j := d - 1; j >= 0; j-- {
			if co[x+j]++; int(co[x+j]) < nw.shape[j] {
				break
			}
			co[x+j] = 0
		}
	}
	nw.coords = co
}

// span is one arithmetic progression of directed-link ranks: the n
// links first, first+step, …, first+(n-1)·step of a route.
type span struct{ first, step, n int }

// route is the router: it appends the spans of the dimension-ordered
// route src -> dst to buf and returns them with the hop count. Axes are
// corrected in index order. On a torus each axis goes the shorter way
// round, ties toward increasing coordinates; on a mesh it goes
// monotonically. Links along one axis are a progression whose step is
// the axis's link-rank stride, until a torus wrap restarts it at the
// far end of the axis — so an axis yields one span, or two when it
// wraps, and a route at most 2·Dim.
func (nw *Network) route(buf []span, src, dst int) ([]span, int) {
	co := nw.coordTable()
	d := len(nw.shape)
	from, to := co[src*d:src*d+d], co[dst*d:dst*d+d]
	x, hops := src, 0
	for j, l := range nw.shape {
		c, t := int(from[j]), int(to[j])
		if c == t {
			continue
		}
		n, neg := nw.axisHops(c, t, l)
		stride := nw.strides[j]
		room, step, wrapTo := l-c, stride, x-c*stride // +1 wraps onto coordinate 0
		if neg {
			room, step, wrapTo = c+1, -stride, wrapTo+(l-1)*stride // -1 wraps onto l-1
		}
		// Rank is affine in the node: moving step nodes along the axis
		// moves every link rank by Rank(step, 0, false).
		linkStep := nw.lr.Rank(step, 0, false)
		first := min(n, room)
		buf = append(buf, span{nw.lr.Rank(x, j, neg), linkStep, first})
		if first < n {
			buf = append(buf, span{nw.lr.Rank(wrapTo, j, neg), linkStep, n - first})
		}
		x += (t - c) * stride
		hops += n
	}
	return buf, hops
}

// axisHops is the router's per-axis rule: the hop count and direction
// (neg for decreasing coordinates) of one axis of a route from
// coordinate c to t on an axis of length l. On a torus it is the
// shorter way round, ties toward +1; on a mesh, the direct way.
func (nw *Network) axisHops(c, t, l int) (n int, neg bool) {
	n, neg = t-c, t < c
	if neg {
		n = -n
	}
	if nw.torus {
		if neg {
			n = l - n // the forward distance
		}
		neg = n > l-n
		if neg {
			n = l - n
		}
	}
	return n, neg
}

// wraps reports whether the route src -> dst crosses the wrap link of
// some torus axis: whether, on some axis, the router turns the other
// way than the sign of the coordinate difference, as it does past half
// the axis, and at exactly half of it when the difference is negative
// (ties go toward +1). A route that wraps no axis stays between its
// endpoints' coordinates on every axis.
func (nw *Network) wraps(src, dst int) bool {
	if !nw.torus {
		return false
	}
	co := nw.coordTable()
	d := len(nw.shape)
	from, to := co[src*d:src*d+d], co[dst*d:dst*d+d]
	for j, l := range nw.shape {
		c, t := int(from[j]), int(to[j])
		if _, neg := nw.axisHops(c, t, l); c != t && neg != (t < c) {
			return true
		}
	}
	return false
}

// distance returns the hop count of the route src -> dst from the
// endpoints' coordinates alone, without building the route.
func (nw *Network) distance(src, dst int) int {
	co := nw.coordTable()
	d := len(nw.shape)
	from, to := co[src*d:src*d+d], co[dst*d:dst*d+d]
	hops := 0
	for j, l := range nw.shape {
		n, _ := nw.axisHops(int(from[j]), int(to[j]), l)
		hops += n
	}
	return hops
}

// Placement maps task index to router index.
type Placement []int

// PlacementFromEmbedding converts an embedding (guest = task graph's
// source topology, host = the machine) into a placement table.
func PlacementFromEmbedding(e *embed.Embedding) Placement {
	return Placement(e.Table())
}

// IdentityPlacement places task i on router i.
func IdentityPlacement(n int) Placement {
	p := make(Placement, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Validate checks that the placement is an injection into the network.
func (p Placement) Validate(nw *Network, tasks int) error {
	if len(p) != tasks {
		return fmt.Errorf("netsim: placement covers %d tasks, want %d", len(p), tasks)
	}
	seen := make([]bool, nw.n)
	for t, r := range p {
		if r < 0 || r >= nw.n {
			return fmt.Errorf("netsim: task %d placed on invalid router %d", t, r)
		}
		if seen[r] {
			return fmt.Errorf("netsim: router %d hosts two tasks", r)
		}
		seen[r] = true
	}
	return nil
}

// Result aggregates one simulated communication phase.
type Result struct {
	// Cycles is the number of cycles until every packet arrived.
	Cycles int
	// Packets is the number of packets exchanged (two per task edge, one
	// each way).
	Packets int
	// MaxHops is the longest routed path (the dilation of the placement
	// when routing is minimal).
	MaxHops int
	// AvgHops is the mean routed path length.
	AvgHops float64
	// MaxLinkLoad is the largest number of packets crossing any single
	// directed link during the phase (congestion).
	MaxLinkLoad int
}

// Simulate runs one communication phase of the task graph under the
// placement: every task edge sends one packet in each direction; each
// cycle a directed link transfers at most one packet, lower packet ids
// first; the phase ends when every packet is delivered. Packet 2i
// carries edge i forward and packet 2i+1 carries it back. The static
// fields come from the accumulator's tally; the cycle loop walks each
// packet's link ranks.
func Simulate(nw *Network, tg *taskgraph.Graph, p Placement) (Result, error) {
	if nw.LinkSlots() > math.MaxInt32 {
		return Result{}, fmt.Errorf("netsim: host %s has %d link slots, more than Simulate's int32 link ranks address", nw.Spec, nw.LinkSlots())
	}
	t, err := nw.measure(tg, p)
	if err != nil {
		return Result{}, err
	}
	res := Result{Packets: 2 * len(tg.Edges), MaxLinkLoad: t.stats().MaxLink}
	for d, v := range t.distHist {
		if v != 0 {
			res.MaxHops = d
		}
	}
	if res.Packets > 0 {
		res.AvgHops = float64(t.hops) / float64(res.Packets)
	}

	// Packet k's route is links[next[k]:end[k]]; next[k] advances as it
	// hops, and k is delivered when next[k] reaches end[k]. Validation
	// rules out self-loops and shared routers, so every route has a hop.
	links := make([]int32, 0, t.hops)
	next := make([]int, res.Packets)
	end := make([]int, res.Packets)
	var spans []span
	for k := range next {
		e := tg.Edges[k/2]
		src, dst := p[e[0]], p[e[1]]
		if k%2 == 1 {
			src, dst = dst, src
		}
		next[k] = len(links)
		spans, _ = nw.route(spans[:0], src, dst)
		for _, sp := range spans {
			for r, i := sp.first, 0; i < sp.n; r, i = r+sp.step, i+1 {
				links = append(links, int32(r))
			}
		}
		end[k] = len(links)
	}

	// claimed[l] is the last cycle link l carried a packet.
	claimed := make([]int32, nw.LinkSlots())
	const safety = 1 << 20
	for pending := res.Packets; pending > 0; {
		res.Cycles++
		if res.Cycles > safety {
			return res, fmt.Errorf("netsim: simulation did not converge (livelock?)")
		}
		c := int32(res.Cycles)
		for k, i := range next {
			if i == end[k] {
				continue // delivered
			}
			if l := links[i]; claimed[l] != c {
				claimed[l] = c
				if next[k]++; next[k] == end[k] {
					pending--
				}
			}
		}
	}
	return res, nil
}
