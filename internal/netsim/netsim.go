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
// Every consumer routes through one router, Network.route. It reads
// both endpoints' coordinates from a per-network table (built on the
// first route, never by New), fixes each axis's direction and hop count
// once — the shorter way round on a torus, ties toward +1 — and returns
// the route as arithmetic progressions of dense link ranks
// (grid.LinkRanker), at most two per axis because a torus wrap splits
// one. Nothing on that path divides.
//
// On top of the router sits one load accumulator, accumulate: it
// stripes task edges over the internal/par pool into per-worker link
// load slabs and route-length histograms, merges them by index, and
// leaves every aggregate to be derived after the pass. Congestion and
// CongestionHops — the census's congestion column and the placement
// search's scoring backend — and NewLoadState, the annealing pass's
// incremental state, all start from it. Simulate runs a timed
// communication phase (cycles to drain, with link arbitration) on node
// paths derived from the same progressions — the demonstration path of
// the experiments.
package netsim

import (
	"fmt"
	"sort"
	"sync"

	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/par"
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
		n, neg := t-c, t < c
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

// Route returns the dimension-ordered path from src to dst (inclusive of
// both endpoints) as router indices. In each dimension the torus variant
// walks around the shorter way; the mesh variant walks monotonically.
// Dimension-ordered routing on these topologies is minimal, so the path
// length equals the graph distance of Lemmas 5 and 6.
func (nw *Network) Route(src, dst int) []int {
	path, _ := nw.path(nil, src, dst)
	return path
}

// path derives a route's node sequence from the router's spans: the
// source node of every link in order, then dst. spans is routing
// scratch, returned for reuse.
func (nw *Network) path(spans []span, src, dst int) ([]int, []span) {
	spans, hops := nw.route(spans[:0], src, dst)
	path := make([]int, 0, hops+1)
	for _, sp := range spans {
		for r, k := sp.first, 0; k < sp.n; r, k = r+sp.step, k+1 {
			node, _, _ := nw.lr.Unrank(r)
			path = append(path, node)
		}
	}
	return append(path, dst), spans
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

// linkKey identifies a directed link by its endpoints.
type linkKey struct{ from, to int }

// packet is an in-flight message with a precomputed route.
type packet struct {
	path []int
	pos  int // index of the router currently holding the packet
}

// routeAll precomputes the two directed routes of every task edge,
// striping edges across workers: packet slots 2i and 2i+1 belong to
// edge i, so writes are disjoint and only the retained paths allocate.
func (nw *Network) routeAll(tg *taskgraph.Graph, p Placement) (packets []*packet, totalHops, maxHops int) {
	packets = make([]*packet, 2*len(tg.Edges))
	var mu sync.Mutex
	par.Blocks(len(tg.Edges), par.Grain(len(tg.Edges), 256), func(lo, hi int) {
		var spans []span
		localTotal, localMax := 0, 0
		for i := lo; i < hi; i++ {
			e := tg.Edges[i]
			a, b := p[e[0]], p[e[1]]
			var fwd, bwd []int
			fwd, spans = nw.path(spans, a, b)
			bwd, spans = nw.path(spans, b, a)
			packets[2*i] = &packet{path: fwd}
			packets[2*i+1] = &packet{path: bwd}
			localTotal += (len(fwd) - 1) + (len(bwd) - 1)
			if h := len(fwd) - 1; h > localMax {
				localMax = h
			}
			if h := len(bwd) - 1; h > localMax {
				localMax = h
			}
		}
		mu.Lock()
		totalHops += localTotal
		if localMax > maxHops {
			maxHops = localMax
		}
		mu.Unlock()
	})
	return packets, totalHops, maxHops
}

// Simulate runs one communication phase of the task graph under the
// placement: every task edge sends one packet in each direction; each
// cycle a directed link transfers at most one packet (FIFO by packet
// id); the phase ends when every packet is delivered.
func Simulate(nw *Network, tg *taskgraph.Graph, p Placement) (Result, error) {
	if err := tg.Validate(); err != nil {
		return Result{}, err
	}
	if err := p.Validate(nw, tg.N); err != nil {
		return Result{}, err
	}
	packets, totalHops, maxHops := nw.routeAll(tg, p)
	res := Result{Packets: len(packets), MaxHops: maxHops}
	if len(packets) > 0 {
		res.AvgHops = float64(totalHops) / float64(len(packets))
	}

	linkLoad := map[linkKey]int{}
	for _, pk := range packets {
		for i := 0; i+1 < len(pk.path); i++ {
			k := linkKey{pk.path[i], pk.path[i+1]}
			linkLoad[k]++
			if linkLoad[k] > res.MaxLinkLoad {
				res.MaxLinkLoad = linkLoad[k]
			}
		}
	}

	// Cycle loop: each directed link carries one packet per cycle; lower
	// packet ids win arbitration (FIFO by injection order).
	pending := len(packets)
	for _, pk := range packets {
		if len(pk.path) == 1 {
			pending-- // co-located tasks deliver instantly
		}
	}
	cycles := 0
	const safety = 1 << 20
	for pending > 0 {
		cycles++
		if cycles > safety {
			return res, fmt.Errorf("netsim: simulation did not converge (livelock?)")
		}
		claimed := map[linkKey]bool{}
		for _, pk := range packets {
			if pk.pos >= len(pk.path)-1 {
				continue // delivered
			}
			k := linkKey{pk.path[pk.pos], pk.path[pk.pos+1]}
			if claimed[k] {
				continue // link busy this cycle
			}
			claimed[k] = true
			pk.pos++
			if pk.pos == len(pk.path)-1 {
				pending--
			}
		}
	}
	res.Cycles = cycles
	return res, nil
}

// CompareResult pairs a placement label with its simulation outcome, for
// the experiment reports.
type CompareResult struct {
	Label  string
	Result Result
}

// Compare simulates the same task graph under several placements and
// returns results sorted by cycles (fastest first).
func Compare(nw *Network, tg *taskgraph.Graph, placements map[string]Placement) ([]CompareResult, error) {
	out := make([]CompareResult, 0, len(placements))
	for label, p := range placements {
		r, err := Simulate(nw, tg, p)
		if err != nil {
			return nil, fmt.Errorf("placement %q: %v", label, err)
		}
		out = append(out, CompareResult{Label: label, Result: r})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Result.Cycles != out[j].Result.Cycles {
			return out[i].Result.Cycles < out[j].Result.Cycles
		}
		return out[i].Label < out[j].Label
	})
	return out, nil
}
