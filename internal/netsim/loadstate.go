// LoadState is the incremental form of the static congestion and
// dilation measurement: the guest's edges are routed once into a dense
// per-directed-link load array, and from then on a node move re-routes
// only the O(degree) edges incident to the moved nodes instead of the
// whole graph. It exists for the placement engine's annealing pass,
// where the same placement is perturbed hundreds of thousands of times
// and full re-measurement per move (O(|E|·distance)) is the scaling
// wall.
//
// All aggregates are maintained exactly, in integers, so a LoadState
// driven through any move sequence reports bit-identical stats to a
// fresh Congestion + EdgeDilation measurement of the same table (the
// delta-vs-full parity tests pin this):
//
//   - per-link loads live in a flat []int32 indexed by link rank
//     (grid.LinkRanker), beside a bucket count per load value: a move's
//     MaxLink is the larger of its changed links' new loads and the top
//     load whose bucket holds more links than the move changes there,
//     so no move rescans the links;
//   - UsedLinks follows the changed links between zero and nonzero
//     load, and TotalHops the touched edges' distance shifts;
//   - per-edge routed distances feed the same bucket scheme for the
//     max-dilation counter, plus a running sum for average dilation.
//
// Construction takes the tally of the placement's loads from one of two
// sources. NewLoadState runs the network's one striped accumulator (the
// pass Congestion runs), the O(|E|·distance) cost, and derives the
// load-value bucket counters and maxima from the tally's integers, so
// the built state is bit-identical at any worker count.
// NewEmbeddingLoadState, given a proved bijection, takes MaxLink,
// UsedLinks, TotalHops and the distance histogram from the closed form
// and builds no link array at all until the first Evaluate, which tiles
// the closed form's slice loads into it (O(links) writes) and fails if
// the tiled array's peak or used-link count differs from the closed
// form's. A state whose every move is rejected from its proposed
// dilation never builds the array.
//
// A move is three calls, and nothing is ever undone. Propose stages it:
// it lists the edges incident to the moved guests and returns the exact
// dilation the placement would have after the move, measuring those
// edges' distances from host coordinates alone, with the router's own
// per-axis rule. Evaluate routes the listed edges before and after the
// move into a per-link delta — a link-sized array beside the list of
// the links the routes cross, both reset per move — and returns the
// exact congestion stats and dilation the placement would have, from
// the nonzero net deltas, the load buckets and the distance buckets.
// Apply writes those deltas into the loads and buckets and moves the
// guests. Propose and Evaluate write no load, bucket, aggregate or
// table entry, so a caller that rejects a move after either just
// proposes the next one.
//
// The placement table is an []int32 of host ranks, like the inverse
// table and the loads, so NewLoadState refuses hosts of 2³¹ nodes or
// more. No such host is runnable anyway: its guest's edge list alone
// would take tens of GiB.
//
// After construction a LoadState is single-goroutine state: moves are
// sequential by design (the annealing pass is deterministic), so
// nothing is locked.
package netsim

import (
	"fmt"
	"math"
	"slices"

	"torusmesh/internal/taskgraph"
)

// LoadState holds the incrementally maintained routing state of one
// placement. Build one with NewLoadState; move guests with Propose,
// Evaluate and Apply (or Swap), and read costs with Stats and Dilation.
type LoadState struct {
	nw  *Network
	tg  *taskgraph.Graph
	p   []int32 // guest rank -> host rank
	inv []int32 // host rank -> guest rank, -1 when unoccupied
	// Guest g's incident edges are incEdges[incOff[g]:incOff[g+1]]
	// (taskgraph.Incidence).
	incOff, incEdges []int32

	// cf is the closed form a state built from one tiles its link array
	// from on the first Evaluate; until then load and loadHist are nil.
	cf       *closedForm
	load     []int32 // per directed link, indexed by link rank
	loadHist []int32 // loadHist[v] = links currently at load v (v >= 1)
	maxLink  int
	used     int
	hops     int

	distHist []int32 // distHist[d] = edges currently routed at distance d (d >= 1)
	maxDist  int
	distSum  int64

	// moved marks, one bit per guest, the guests whose incident edges
	// Propose has listed so far; Propose clears it before it returns.
	moved []uint64
	// delta[r] is the net load change on link r of the routes Evaluate
	// has taken off and put on so far; Evaluate leaves it all zero.
	delta []int32
	// out[v] counts the entries a move takes out of bucket v of the load
	// or distance buckets while Evaluate finds the top one it leaves
	// occupied; all zero between uses.
	out []int32
	mv  move // the staged or evaluated move
}

// move is one staged move and, once evaluated, the net change Apply
// writes. Its buffers are reused from move to move.
type move struct {
	phase   movePhase
	guests  []int32 // the moved guests
	from    []int32 // their hosts before the move
	to      []int32 // their hosts after it
	touched []int32 // the edges incident to a moved guest, each once, in first-touch order
	// dist holds each touched edge's distance: Propose keeps the
	// distances before the move there, and Evaluate the routed ones,
	// before the move in dist[:len(touched)] and after it in
	// dist[len(touched):].
	dist  []int32
	spans []span // route scratch
	// crossed lists the links whose delta left zero while Evaluate
	// routed, a link again each time it returned to zero. Evaluate then
	// compacts it in place into links, the links the move changes, each
	// once, and change[i] is the net load change of links[i].
	crossed, links, change []int32
	// What the placement measures after the move, as Evaluate returned it.
	stats   CongestionStats
	maxDist int
	distSum int64
}

type movePhase uint8

const (
	moveNone movePhase = iota
	moveProposed
	moveEvaluated
)

// NewLoadState validates the placement, routes every task edge once
// through the striped accumulator and derives the bucket counters from
// its tally. Hosts of 2³¹ nodes or more are refused: their ranks do not
// fit the int32 tables. The placement is copied; the caller's slice is
// not retained.
func NewLoadState(nw *Network, tg *taskgraph.Graph, p Placement) (*LoadState, error) {
	return newLoadState(nw, tg, tg.Incidence, p, nil)
}

// newLoadState builds a load state whose aggregates come from cf, with
// the link array tiled from it on the first Evaluate, or from routing
// every edge now when cf is nil, and whose incidence lists come from
// incidence, called once the graph is validated.
func newLoadState(nw *Network, tg *taskgraph.Graph, incidence func() (off, edges []int32), p Placement, cf *closedForm) (*LoadState, error) {
	if err := tg.Validate(); err != nil {
		return nil, err
	}
	// The size guard runs before placement validation, which allocates
	// host-sized scratch: on the hosts it refuses, that is exactly the
	// allocation to avoid.
	if nw.n > math.MaxInt32 {
		return nil, fmt.Errorf("netsim: load tables address host ranks below 2^31, but host %s has %d nodes", nw.Spec, nw.n)
	}
	if err := p.Validate(nw, tg.N); err != nil {
		return nil, err
	}
	ls := &LoadState{
		nw:    nw,
		tg:    tg,
		p:     make([]int32, len(p)),
		inv:   make([]int32, nw.n),
		moved: make([]uint64, (tg.N+63)/64),
	}
	if cf != nil {
		ls.cf = cf
		ls.maxLink, ls.used, ls.hops = cf.stats.MaxLink, cf.stats.UsedLinks, cf.stats.TotalHops
		ls.distHist, ls.distSum = cf.distHist, cf.distSum
	} else {
		t := nw.accumulate(tg, p)
		ls.maxLink, ls.used = ls.setLoads(t.load)
		ls.hops, ls.distHist, ls.distSum = t.hops, t.distHist, t.distSum
	}
	ls.incOff, ls.incEdges = incidence()
	for d, v := range ls.distHist {
		if v != 0 {
			ls.maxDist = d
		}
	}
	for i := range ls.inv {
		ls.inv[i] = -1
	}
	for g, h := range p {
		ls.p[g] = int32(h)
		ls.inv[h] = int32(g)
	}
	return ls, nil
}

// setLoads installs load as the link array, counts its load buckets —
// loadHist[v] is the links at load v >= 1 — and returns the peak load
// and the links in use it counted.
func (ls *LoadState) setLoads(load []int32) (maxLink, used int) {
	for _, v := range load {
		if v > 0 {
			used++
			maxLink = max(maxLink, int(v))
		}
	}
	ls.load, ls.loadHist = load, make([]int32, max(8, maxLink+1))
	for _, v := range load {
		ls.loadHist[v]++
	}
	ls.loadHist[0] = 0
	return maxLink, used
}

// HostOf returns the host rank guest g is currently placed on.
func (ls *LoadState) HostOf(g int) int { return int(ls.p[g]) }

// CopyTableInto writes the current placement table into dst, which must
// have length tg.N — the snapshot form consumers take when they need
// the whole table (re-validation, best-visited bookkeeping) rather than
// single lookups.
func (ls *LoadState) CopyTableInto(dst []int) {
	for g, h := range ls.p {
		dst[g] = int(h)
	}
}

// GuestAt returns the guest placed on host rank h, or -1 when the slot
// is unoccupied (placements smaller than the host leave holes).
func (ls *LoadState) GuestAt(h int) int { return int(ls.inv[h]) }

// Stats returns the congestion aggregates of the current placement —
// bit-identical to Congestion on the same table.
func (ls *LoadState) Stats() CongestionStats {
	return CongestionStats{MaxLink: ls.maxLink, TotalHops: ls.hops, UsedLinks: ls.used}
}

// Dilation returns the maximum and mean routed edge distance of the
// current placement — bit-identical to grid.Spec.EdgeDilation of the
// guest over the same table (dimension-ordered routing is minimal, so
// routed length equals graph distance).
func (ls *LoadState) Dilation() (max int, avg float64) {
	return ls.maxDist, ls.meanDistance(ls.distSum)
}

// meanDistance is the mean edge distance of a placement whose edge
// distances sum to sum.
func (ls *LoadState) meanDistance(sum int64) float64 {
	if len(ls.tg.Edges) == 0 {
		return 0
	}
	return float64(sum) / float64(len(ls.tg.Edges))
}

// Propose stages moving each guests[i] to hosts[i] and returns the
// maximum routed edge distance the placement would have after the move.
// hosts must be a permutation of the guests' current images, so the
// move preserves injectivity; the guests are distinct. Only the edges
// incident to the moved guests are measured, from host coordinates: no
// link load, aggregate or table entry changes, and a later Propose drops
// the staged move.
func (ls *LoadState) Propose(guests, hosts []int32) int {
	mv := &ls.mv
	mv.guests = append(mv.guests[:0], guests...)
	mv.to = append(mv.to[:0], hosts...)
	mv.from, mv.touched = mv.from[:0], mv.touched[:0]
	for _, g := range guests {
		mv.from = append(mv.from, ls.p[g])
		ls.touch(g)
	}
	// Every mark is a moved guest's, so clearing their words clears all.
	for _, g := range guests {
		ls.moved[g>>6] = 0
	}
	// Take the touched edges out of the distance buckets: the top
	// bucket left is the longest untouched edge.
	mv.dist = mv.dist[:0]
	for _, e := range mv.touched {
		d := ls.edgeDistance(e)
		mv.dist = append(mv.dist, int32(d))
		ls.distHist[d]--
	}
	top := ls.maxDist
	for top > 0 && ls.distHist[top] == 0 {
		top--
	}
	for i, g := range guests {
		ls.p[g] = hosts[i]
	}
	for _, e := range mv.touched {
		top = max(top, ls.edgeDistance(e))
	}
	for i, g := range guests {
		ls.p[g] = mv.from[i]
	}
	for _, d := range mv.dist {
		ls.distHist[d]++
	}
	mv.phase = moveProposed
	return top
}

// Evaluate measures the staged move without making it: it routes the
// touched edges under the placement before the move and after it into
// the move's per-link net delta, and returns the congestion stats and
// the maximum and mean routed edge distance the placement would have
// after the move — bit-identical to a fresh measurement of the moved
// table. No load, bucket, aggregate or table entry changes: Apply makes
// the move, and a later Propose drops it. The first Evaluate of a state
// built from a closed form tiles the link array, and fails if the tiled
// loads disagree with the closed form's peak or used-link count.
func (ls *LoadState) Evaluate() (stats CongestionStats, maxDist int, avgDist float64, err error) {
	mv := &ls.mv
	if mv.phase != moveProposed {
		panic("netsim: Evaluate without a proposed move")
	}
	if ls.delta == nil {
		if err := ls.buildLinks(); err != nil {
			return CongestionStats{}, 0, 0, err
		}
	}
	mv.crossed, mv.dist = mv.crossed[:0], mv.dist[:0]
	ls.routeTouched(-1)
	for i, g := range mv.guests {
		ls.p[g] = mv.to[i]
	}
	ls.routeTouched(+1)
	for i, g := range mv.guests {
		ls.p[g] = mv.from[i]
	}

	// Collect the changed links, each once, resetting their deltas:
	// their new loads, the links that start or stop carrying routes, and
	// their old loads counted out of the buckets.
	if len(ls.out) < len(ls.loadHist) {
		ls.out = make([]int32, max(len(ls.loadHist), len(ls.distHist)))
	}
	crossed, delta, load, out := mv.crossed, ls.delta, ls.load, ls.out
	change := slices.Grow(mv.change[:0], len(crossed))[:len(crossed)]
	maxLink, used, m := 0, ls.used, 0
	for _, r := range crossed {
		d := delta[r]
		if d == 0 {
			continue
		}
		delta[r] = 0
		crossed[m], change[m] = r, d
		m++
		old := load[r]
		v := old + d
		if old == 0 {
			used++
		} else {
			out[old]++
			if v == 0 {
				used--
			}
		}
		maxLink = max(maxLink, int(v))
	}
	mv.links, mv.change = crossed[:m], change[:m]
	maxLink = max(maxLink, ls.topLeft(ls.loadHist, ls.maxLink))
	k := len(mv.touched)
	shift := 0
	for i, d := range mv.dist[:k] {
		ls.out[d]++
		nd := mv.dist[k+i]
		maxDist = max(maxDist, int(nd))
		shift += int(nd) - int(d)
	}
	maxDist = max(maxDist, ls.topLeft(ls.distHist, ls.maxDist))
	mv.stats = CongestionStats{MaxLink: maxLink, TotalHops: ls.hops + 2*shift, UsedLinks: used}
	mv.maxDist, mv.distSum = maxDist, ls.distSum+int64(shift)
	mv.phase = moveEvaluated
	return mv.stats, maxDist, ls.meanDistance(mv.distSum), nil
}

// Apply makes the evaluated move: it adds each changed link's net delta
// to its load and buckets, shifts the touched edges' distances, moves
// the guests in both tables and takes the aggregates Evaluate returned.
func (ls *LoadState) Apply() {
	mv := &ls.mv
	if mv.phase != moveEvaluated {
		panic("netsim: Apply without an evaluated move")
	}
	for mv.stats.MaxLink >= len(ls.loadHist) {
		ls.loadHist = append(ls.loadHist, make([]int32, len(ls.loadHist))...)
	}
	load, hist, change := ls.load, ls.loadHist, mv.change
	for i, r := range mv.links {
		old := load[r]
		v := old + change[i]
		load[r] = v
		if old > 0 {
			hist[old]--
		}
		if v > 0 {
			hist[v]++
		}
	}
	k := len(mv.touched)
	for i, d := range mv.dist[:k] {
		ls.distHist[d]--
		ls.distHist[mv.dist[k+i]]++
	}
	ls.place(mv.guests, mv.to)
	ls.maxLink, ls.used, ls.hops = mv.stats.MaxLink, mv.stats.UsedLinks, mv.stats.TotalHops
	ls.maxDist, ls.distSum = mv.maxDist, mv.distSum
	mv.phase = moveNone
}

// Swap exchanges the host images of guests u and v — the annealing
// pass's basic move — as one Propose, Evaluate and Apply.
func (ls *LoadState) Swap(u, v int) error {
	guests := [2]int32{int32(u), int32(v)}
	hosts := [2]int32{ls.p[v], ls.p[u]}
	ls.Propose(guests[:], hosts[:])
	if _, _, _, err := ls.Evaluate(); err != nil {
		return err
	}
	ls.Apply()
	return nil
}

// buildLinks readies the first Evaluate: it allocates the delta array
// and, for a state built from a closed form, tiles the link array from
// the placement, which no move has changed yet, and checks its recount
// against the closed form's peak and used links.
func (ls *LoadState) buildLinks() error {
	if cf := ls.cf; cf != nil {
		maxLink, used := ls.setLoads(ls.nw.tile(cf, ls.p).load)
		if maxLink != ls.maxLink || used != ls.used {
			return fmt.Errorf("netsim: tiled link array peaks at %d over %d used links, closed form at %d over %d", maxLink, used, ls.maxLink, ls.used)
		}
		ls.cf = nil
	}
	ls.delta = make([]int32, len(ls.load))
	return nil
}

// touch lists every edge incident to guest g for re-routing, except one
// whose other endpoint is marked moved, which listed it already, and
// then marks g: an edge between two moved guests is listed once, under
// the one touched first.
func (ls *LoadState) touch(g int32) {
	for _, e := range ls.incEdges[ls.incOff[g]:ls.incOff[g+1]] {
		ed := ls.tg.Edges[e]
		o := ed[0]
		if o == int(g) {
			o = ed[1]
		}
		if ls.moved[o>>6]&(1<<(o&63)) == 0 {
			ls.mv.touched = append(ls.mv.touched, e)
		}
	}
	ls.moved[g>>6] |= 1 << (g & 63)
}

// edgeDistance is task edge e's routed distance under the current
// placement, from its endpoints' coordinates.
func (ls *LoadState) edgeDistance(e int32) int {
	ed := ls.tg.Edges[e]
	return ls.nw.distance(int(ls.p[ed[0]]), int(ls.p[ed[1]]))
}

// routeTouched adds sign to the delta of every link on both directed
// routes of every touched edge under the current placement, listing
// each link whose delta leaves zero as crossed, and appends each edge's
// routed distance to the move's distances.
func (ls *LoadState) routeTouched(sign int32) {
	mv := &ls.mv
	spans, crossed, dist, delta := mv.spans, mv.crossed, mv.dist, ls.delta
	for _, e := range mv.touched {
		ed := ls.tg.Edges[e]
		a, b := int(ls.p[ed[0]]), int(ls.p[ed[1]])
		var d int
		spans, d = ls.nw.route(spans[:0], a, b)
		spans, _ = ls.nw.route(spans, b, a)
		// Both routes cross 2d links: with room for all of them, every
		// link is written past the end and kept when its delta left zero.
		n := len(crossed)
		crossed = slices.Grow(crossed, 2*d)
		crossed = crossed[:cap(crossed)]
		for _, sp := range spans {
			for r, k := sp.first, 0; k < sp.n; r, k = r+sp.step, k+1 {
				old := delta[r]
				delta[r] = old + sign
				crossed[n] = int32(r)
				if old == 0 {
					n++
				}
			}
		}
		crossed = crossed[:n]
		dist = append(dist, int32(d))
	}
	mv.spans, mv.crossed, mv.dist = spans, crossed, dist
}

// topLeft returns the highest v <= top whose bucket hist[v] holds more
// entries than the move takes out of it, out[v], or 0 when there is
// none; it clears out[:top+1] for the next count.
func (ls *LoadState) topLeft(hist []int32, top int) int {
	v := top
	for v > 0 && hist[v] <= ls.out[v] {
		v--
	}
	clear(ls.out[:top+1])
	return v
}

// place moves each guests[i] to hosts[i] in both tables; hosts is a
// permutation of the guests' current images.
func (ls *LoadState) place(guests, hosts []int32) {
	for _, g := range guests {
		ls.inv[ls.p[g]] = -1
	}
	for i, g := range guests {
		ls.p[g] = hosts[i]
		ls.inv[hosts[i]] = g
	}
}
