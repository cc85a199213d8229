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
//     (grid.LinkRanker), with MaxLink maintained through a bucket count
//     per load value — a max that decreases in O(1) amortized instead
//     of a rescan;
//   - TotalHops and UsedLinks update as routes are added/removed;
//   - per-edge routed distances feed the same bucket scheme for the
//     max-dilation counter, plus a running sum for average dilation.
//
// Construction takes the tally of the placement's loads from one of two
// sources. NewEmbeddingLoadState, given a proved bijection, tiles the
// closed form's slice loads into the link array: O(links) writes and
// the routes of one slice per component. Every other construction runs the network's one
// striped accumulator (the pass Congestion runs), the O(|E|·distance)
// cost. Either way the load-value bucket counters and maxima are
// derived from the tally's integers afterwards, so the built state is
// bit-identical whichever source and worker count built it. Moves
// re-route through the same router, applying each link-rank
// progression inline with the bucket updates.
//
// A move is three calls. Propose stages it: it marks the edges incident
// to the moved guests and returns the exact dilation the placement would
// have after the move, measuring those edges' distances from host
// coordinates alone, with the router's own per-axis rule. It writes no
// load and changes no aggregate or table entry, so a caller that
// rejects the move on that number alone just proposes the next one.
// Commit applies the staged move: it routes the marked edges off their
// old hosts and onto the new ones, and keeps the record of what it
// applied — the link-rank spans it took off and put on, and each edge's
// routed distance before and after. Revert replays that record
// backwards: the spans put on come off, the spans taken off go back,
// and the distances and table entries return to their old values,
// without routing anything.
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

	"torusmesh/internal/taskgraph"
)

// LoadState holds the incrementally maintained routing state of one
// placement. Build one with NewLoadState; move guests with Propose and
// Commit (or Swap), undo a committed move with Revert, and read costs
// with Stats and Dilation.
type LoadState struct {
	nw  *Network
	tg  *taskgraph.Graph
	p   []int32 // guest rank -> host rank
	inv []int32 // host rank -> guest rank, -1 when unoccupied
	// Guest g's incident edges are incEdges[incOff[g]:incOff[g+1]]
	// (taskgraph.Incidence).
	incOff, incEdges []int32

	load     []int32 // per directed link, indexed by link rank
	loadHist []int32 // loadHist[v] = links currently at load v (v >= 1)
	maxLink  int
	used     int
	hops     int

	distHist []int32 // distHist[d] = edges currently routed at distance d (d >= 1)
	maxDist  int
	distSum  int64

	stamp []int32 // per-edge epoch marks of the current move
	epoch int32
	mv    move // the staged or last committed move
}

// move is one staged move and, once committed, the record Revert
// replays. Its buffers are reused from move to move.
type move struct {
	phase   movePhase
	guests  []int32 // the moved guests
	from    []int32 // their hosts before the move
	to      []int32 // their hosts after it
	touched []int32 // the edges incident to a moved guest, each once
	// spans[:split] are the routes Commit took off the links, and
	// spans[split:] the routes it put on.
	spans []span
	split int
	// dist holds each touched edge's routed distance: before the move
	// in dist[:len(touched)], after it in dist[len(touched):]. Propose
	// keeps the distances before the move there for its own use.
	dist []int32
}

type movePhase uint8

const (
	moveNone movePhase = iota
	moveProposed
	moveCommitted
)

// NewLoadState validates the placement, routes every task edge once
// through the striped accumulator and derives the bucket counters from
// its tally. Hosts of 2³¹ nodes or more are refused: their ranks do not
// fit the int32 tables. The placement is copied; the caller's slice is
// not retained.
func NewLoadState(nw *Network, tg *taskgraph.Graph, p Placement) (*LoadState, error) {
	return newLoadState(nw, tg, tg.Incidence, p, nil)
}

// newLoadState builds a load state whose tally is tiled from cf, or
// routed when cf is nil, and whose incidence lists come from incidence,
// called once the graph is validated.
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
	var t tally
	if cf != nil {
		t = nw.tile(cf, p)
	} else {
		t = nw.accumulate(tg, p)
	}
	st := t.stats()
	ls := &LoadState{
		nw:       nw,
		tg:       tg,
		p:        make([]int32, len(p)),
		inv:      make([]int32, nw.n),
		load:     t.load,
		loadHist: make([]int32, max(8, st.MaxLink+1)),
		maxLink:  st.MaxLink,
		used:     st.UsedLinks,
		hops:     st.TotalHops,
		distHist: t.distHist,
		distSum:  t.distSum,
		stamp:    make([]int32, len(tg.Edges)),
	}
	ls.incOff, ls.incEdges = incidence()
	// The bucket counters come from the tally: loadHist[v] counts the
	// links at load v >= 1, and maxDist is the top occupied distance.
	for _, v := range t.load {
		ls.loadHist[v]++
	}
	ls.loadHist[0] = 0
	for d, v := range t.distHist {
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
	if len(ls.tg.Edges) > 0 {
		avg = float64(ls.distSum) / float64(len(ls.tg.Edges))
	}
	return ls.maxDist, avg
}

// Propose stages moving each guests[i] to hosts[i] and returns the
// maximum routed edge distance the placement would have after the move.
// hosts must be a permutation of the guests' current images, so the
// move preserves injectivity. Only the edges incident to the moved
// guests are measured, from host coordinates: no link load, aggregate
// or table entry changes, and a later Propose drops the staged move.
func (ls *LoadState) Propose(guests, hosts []int32) int {
	mv := &ls.mv
	mv.guests = append(mv.guests[:0], guests...)
	mv.to = append(mv.to[:0], hosts...)
	mv.from = mv.from[:0]
	ls.beginMove()
	for _, g := range guests {
		mv.from = append(mv.from, ls.p[g])
		ls.touch(g)
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

// Commit applies the staged move: the touched edges are routed off
// their old hosts and onto the new ones, and the spans and routed
// distances applied are recorded for Revert.
func (ls *LoadState) Commit() {
	mv := &ls.mv
	if mv.phase != moveProposed {
		panic("netsim: Commit without a staged move")
	}
	mv.spans, mv.dist = mv.spans[:0], mv.dist[:0]
	ls.routeTouched()
	mv.split = len(mv.spans)
	ls.removeLinks(mv.spans)
	ls.place(mv.guests, mv.to)
	ls.routeTouched()
	ls.addLinks(mv.spans[mv.split:])
	k := len(mv.touched)
	ls.shiftDistances(mv.dist[:k], mv.dist[k:])
	mv.phase = moveCommitted
}

// Revert undoes the last committed move from Commit's record, routing
// nothing: the spans it put on come off, the spans it took off go back,
// and every distance and table entry returns to its value before the
// move.
func (ls *LoadState) Revert() {
	mv := &ls.mv
	if mv.phase != moveCommitted {
		panic("netsim: Revert without a committed move")
	}
	ls.removeLinks(mv.spans[mv.split:])
	ls.addLinks(mv.spans[:mv.split])
	ls.place(mv.guests, mv.from)
	k := len(mv.touched)
	ls.shiftDistances(mv.dist[k:], mv.dist[:k])
	mv.phase = moveNone
}

// Swap exchanges the host images of guests u and v — the annealing
// pass's basic move — as one Propose and Commit.
func (ls *LoadState) Swap(u, v int) {
	guests := [2]int32{int32(u), int32(v)}
	hosts := [2]int32{ls.p[v], ls.p[u]}
	ls.Propose(guests[:], hosts[:])
	ls.Commit()
}

// beginMove starts a new move epoch for the touched-edge dedup. When
// the epoch wraps to 0 every stamp is reset to 0, a value the epoch
// does not take again before the next reset, so no stale stamp can
// match a later move.
func (ls *LoadState) beginMove() {
	ls.epoch++
	ls.mv.touched = ls.mv.touched[:0]
	if ls.epoch == 0 {
		clear(ls.stamp)
		ls.epoch = 1
	}
}

// touch marks every edge incident to guest g for re-routing, once per
// move even when both endpoints moved.
func (ls *LoadState) touch(g int32) {
	for _, e := range ls.incEdges[ls.incOff[g]:ls.incOff[g+1]] {
		if ls.stamp[e] != ls.epoch {
			ls.stamp[e] = ls.epoch
			ls.mv.touched = append(ls.mv.touched, e)
		}
	}
}

// edgeDistance is task edge e's routed distance under the current
// placement, from its endpoints' coordinates.
func (ls *LoadState) edgeDistance(e int32) int {
	ed := ls.tg.Edges[e]
	return ls.nw.distance(int(ls.p[ed[0]]), int(ls.p[ed[1]]))
}

// routeTouched appends both directed routes of every touched edge under
// the current placement to the move's spans, and each edge's routed
// distance to its distances. Routes depend only on the endpoints, so
// the routes taken off before a move are exactly the ones put on when
// the move was made.
func (ls *LoadState) routeTouched() {
	mv := &ls.mv
	for _, e := range mv.touched {
		ed := ls.tg.Edges[e]
		a, b := int(ls.p[ed[0]]), int(ls.p[ed[1]])
		var d int
		mv.spans, d = ls.nw.route(mv.spans, a, b)
		mv.spans, _ = ls.nw.route(mv.spans, b, a)
		mv.dist = append(mv.dist, int32(d))
	}
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

// shiftDistances moves the touched edges' routed distances from[k] to
// to[k], maintaining the distance buckets, their sum, the hop total
// (both directions route d hops) and the maximum.
func (ls *LoadState) shiftDistances(from, to []int32) {
	for k, d := range from {
		ls.distHist[d]--
		ls.distHist[to[k]]++
		delta := int(to[k]) - int(d)
		ls.distSum += int64(delta)
		ls.hops += 2 * delta
		ls.maxDist = max(ls.maxDist, int(to[k]))
	}
	for ls.maxDist > 0 && ls.distHist[ls.maxDist] == 0 {
		ls.maxDist--
	}
}

// addLinks adds one route to every link of the spans, maintaining
// per-load bucket counts, UsedLinks and MaxLink.
func (ls *LoadState) addLinks(spans []span) {
	for _, sp := range spans {
		for r, k := sp.first, 0; k < sp.n; r, k = r+sp.step, k+1 {
			old := ls.load[r]
			ls.load[r] = old + 1
			if old == 0 {
				ls.used++
			} else {
				ls.loadHist[old]--
			}
			ls.loadHist = bump(ls.loadHist, int(old)+1)
			ls.maxLink = max(ls.maxLink, int(old)+1)
		}
	}
}

// removeLinks takes one route off every link of the spans; a MaxLink
// whose bucket empties walks down to the next occupied one.
func (ls *LoadState) removeLinks(spans []span) {
	for _, sp := range spans {
		for r, k := sp.first, 0; k < sp.n; r, k = r+sp.step, k+1 {
			old := ls.load[r]
			ls.load[r] = old - 1
			ls.loadHist[old]--
			if old == 1 {
				ls.used--
			} else {
				ls.loadHist[old-1]++
			}
		}
	}
	for ls.maxLink > 0 && ls.loadHist[ls.maxLink] == 0 {
		ls.maxLink--
	}
}

// bump increments hist[v], growing the bucket array as needed.
func bump(hist []int32, v int) []int32 {
	for v >= len(hist) {
		hist = append(hist, make([]int32, len(hist))...)
	}
	hist[v]++
	return hist
}
