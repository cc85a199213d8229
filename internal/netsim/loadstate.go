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
// Construction is the remaining O(|E|·distance) cost. It is the
// network's one striped accumulator (the pass Congestion runs), and the
// load-value bucket counters and maxima are derived from its merged
// integers afterwards, so the built state is bit-identical at any
// worker count. Moves re-route through the same router, applying each
// link-rank progression inline with the bucket updates.
//
// The placement table itself comes in two widths. Hosts whose node
// ranks fit int32 — every host below 2³¹ nodes — default to a compact
// []int32 table, halving the table bytes of the 10⁵-node-scale
// placements the annealing pass runs at; ModeWide keeps the historical
// []int form, and the two modes are move-for-move bit-identical (the
// compact-vs-wide parity test pins this).
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

// Mode selects the placement-table representation of a LoadState.
type Mode int

const (
	// ModeAuto picks the compact table whenever the host's ranks fit
	// int32, the wide one otherwise — the default.
	ModeAuto Mode = iota
	// ModeWide forces the historical []int table.
	ModeWide
	// ModeCompact forces the []int32 table; construction fails on hosts
	// at or past 2³¹ nodes, whose ranks the representation cannot hold.
	ModeCompact
)

// compactLimit is the largest host rank the compact table addresses.
const compactLimit = math.MaxInt32

// LoadState holds the incrementally maintained routing state of one
// placement. Build one with NewLoadState; mutate it with Swap and
// Permute; read costs with Stats and Dilation.
type LoadState struct {
	nw  *Network
	tg  *taskgraph.Graph
	p   []int   // wide guest rank -> host rank table (nil in compact mode)
	p32 []int32 // compact table (nil in wide mode)
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

	spans   []span  // routing scratch for both directions of one edge (cap 4·Dim)
	stamp   []int32 // per-edge epoch marks of the current move
	epoch   int32
	touched []int32 // edge indices the current move re-routes
}

// NewLoadState validates the placement, routes every task edge once
// through the striped accumulator and derives the bucket counters from
// its tally. The table representation is ModeAuto's pick. The placement
// is copied; the caller's slice is not retained.
func NewLoadState(nw *Network, tg *taskgraph.Graph, p Placement) (*LoadState, error) {
	return NewLoadStateMode(nw, tg, p, ModeAuto)
}

// NewLoadStateMode is NewLoadState with an explicit table mode —
// benchmarks and parity tests force ModeWide/ModeCompact; everything
// else wants ModeAuto.
func NewLoadStateMode(nw *Network, tg *taskgraph.Graph, p Placement, mode Mode) (*LoadState, error) {
	if err := tg.Validate(); err != nil {
		return nil, err
	}
	// The mode guard runs before placement validation: validation
	// allocates host-sized scratch, which on the >2³¹-node hosts the
	// guard exists for is exactly the allocation to refuse.
	compact := nw.n <= compactLimit
	switch mode {
	case ModeWide:
		compact = false
	case ModeCompact:
		if !compact {
			return nil, fmt.Errorf("netsim: compact tables address host ranks below 2^31, but host %s has %d nodes; use ModeWide", nw.Spec, nw.n)
		}
	}
	if err := p.Validate(nw, tg.N); err != nil {
		return nil, err
	}
	t := nw.accumulate(tg, p)
	st := t.stats()
	ls := &LoadState{
		nw:       nw,
		tg:       tg,
		inv:      make([]int32, nw.n),
		load:     t.load,
		loadHist: make([]int32, max(8, st.MaxLink+1)),
		maxLink:  st.MaxLink,
		used:     st.UsedLinks,
		hops:     st.TotalHops,
		distHist: t.distHist,
		distSum:  t.distSum,
		spans:    make([]span, 0, 4*len(nw.shape)),
		stamp:    make([]int32, len(tg.Edges)),
	}
	ls.incOff, ls.incEdges = tg.Incidence()
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
	if compact {
		ls.p32 = make([]int32, len(p))
		for g, h := range p {
			ls.p32[g] = int32(h)
		}
	} else {
		ls.p = append([]int(nil), p...)
	}
	for i := range ls.inv {
		ls.inv[i] = -1
	}
	for g := range p {
		ls.inv[p[g]] = int32(g)
	}
	return ls, nil
}

// host and setHost are the width-erasing table accessors of the hot
// paths — one nil check against two routed walks per edge.
func (ls *LoadState) host(g int) int {
	if ls.p32 != nil {
		return int(ls.p32[g])
	}
	return ls.p[g]
}

func (ls *LoadState) setHost(g, h int) {
	if ls.p32 != nil {
		ls.p32[g] = int32(h)
		return
	}
	ls.p[g] = h
}

func (ls *LoadState) tasks() int {
	if ls.p32 != nil {
		return len(ls.p32)
	}
	return len(ls.p)
}

// Compact reports whether the placement table is in the compact int32
// representation.
func (ls *LoadState) Compact() bool { return ls.p32 != nil }

// TableBytes returns the bytes backing the placement table — the
// memory the compact mode halves.
func (ls *LoadState) TableBytes() int {
	if ls.p32 != nil {
		return 4 * len(ls.p32)
	}
	return 8 * len(ls.p)
}

// HostOf returns the host rank guest g is currently placed on.
func (ls *LoadState) HostOf(g int) int { return ls.host(g) }

// CopyTableInto writes the current placement table into dst, which must
// have length tg.N — the snapshot form consumers take when they need
// the whole table (re-validation, best-visited bookkeeping) rather than
// single lookups.
func (ls *LoadState) CopyTableInto(dst []int) {
	if ls.p32 != nil {
		for g, h := range ls.p32 {
			dst[g] = int(h)
		}
		return
	}
	copy(dst, ls.p)
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

// Swap exchanges the host images of guests u and v — the annealing
// pass's basic move — re-routing only their incident edges.
func (ls *LoadState) Swap(u, v int) {
	ls.beginMove()
	ls.touch(u)
	ls.touch(v)
	ls.removeTouched()
	hu, hv := ls.host(u), ls.host(v)
	ls.setHost(u, hv)
	ls.setHost(v, hu)
	ls.inv[hv] = int32(u)
	ls.inv[hu] = int32(v)
	ls.addTouched()
}

// Permute moves each guests[i] to hosts[i], where hosts must be a
// permutation of the guests' current images (so injectivity is
// preserved by construction) — the generic move behind segment
// reversals and axis-block swaps. Only the edges incident to the moved
// guests are re-routed. Undo by calling Permute again with the previous
// images.
func (ls *LoadState) Permute(guests []int32, hosts []int32) {
	ls.beginMove()
	for _, g := range guests {
		ls.touch(int(g))
	}
	ls.removeTouched()
	for _, g := range guests {
		ls.inv[ls.host(int(g))] = -1
	}
	for i, g := range guests {
		ls.setHost(int(g), int(hosts[i]))
		ls.inv[hosts[i]] = g
	}
	ls.addTouched()
}

// Recheck re-measures the placement from scratch and reports whether
// the incremental aggregates drifted — the safety net behind the
// annealing pass's periodic re-validation.
func (ls *LoadState) Recheck() error {
	tab := ls.p
	if ls.p32 != nil {
		tab = make([]int, len(ls.p32))
		ls.CopyTableInto(tab)
	}
	want, err := Congestion(ls.nw, ls.tg, Placement(tab))
	if err != nil {
		return err
	}
	if got := ls.Stats(); got != want {
		return fmt.Errorf("netsim: incremental congestion drifted: have %+v, full measurement %+v", got, want)
	}
	return nil
}

// beginMove starts a new move epoch for the touched-edge dedup.
func (ls *LoadState) beginMove() {
	ls.epoch++
	ls.touched = ls.touched[:0]
	if ls.epoch == 0 { // int32 wrap: invalidate every stale stamp
		for i := range ls.stamp {
			ls.stamp[i] = -1
		}
		ls.epoch = 1
	}
}

// touch marks every edge incident to guest g for re-routing, once per
// move even when both endpoints moved.
func (ls *LoadState) touch(g int) {
	for _, e := range ls.incEdges[ls.incOff[g]:ls.incOff[g+1]] {
		if ls.stamp[e] != ls.epoch {
			ls.stamp[e] = ls.epoch
			ls.touched = append(ls.touched, e)
		}
	}
}

func (ls *LoadState) removeTouched() {
	for _, e := range ls.touched {
		ls.routeEdge(int(e), -1)
	}
}

func (ls *LoadState) addTouched() {
	for _, e := range ls.touched {
		ls.routeEdge(int(e), +1)
	}
}

// routeEdge adds (delta +1) or removes (delta -1) the two directed
// routes of task edge e under the current placement, maintaining the
// load array, the bucket counters, and the dilation aggregates.
// Removal re-routes the same deterministic route the addition routed:
// routes depend only on the endpoints, so the decrements mirror the
// increments exactly.
func (ls *LoadState) routeEdge(e int, delta int32) {
	ed := ls.tg.Edges[e]
	a, b := ls.host(ed[0]), ls.host(ed[1])
	spans, d := ls.nw.route(ls.spans[:0], a, b)
	spans, _ = ls.nw.route(spans, b, a)
	if delta > 0 {
		ls.addLinks(spans)
	} else {
		ls.removeLinks(spans)
	}
	ls.hops += int(delta) * 2 * d
	ls.distSum += int64(delta) * int64(d)
	if delta > 0 {
		ls.distHist[d]++
		ls.maxDist = max(ls.maxDist, d)
	} else {
		ls.distHist[d]--
		for ls.maxDist > 0 && ls.distHist[ls.maxDist] == 0 {
			ls.maxDist--
		}
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
