package netsim

import (
	"sync"

	"torusmesh/internal/par"
	"torusmesh/internal/taskgraph"
)

// CongestionStats summarizes static link congestion: how many task edges
// route over each directed link under dimension-ordered routing, without
// simulating time. Congestion is the second classic embedding cost
// besides dilation; a placement can have unit dilation yet overload a
// link when many guest edges share it.
//
// The struct is deliberately comparable (==): the parity tests compare
// whole stats at once.
type CongestionStats struct {
	// MaxLink is the largest number of task-edge routes crossing any
	// single directed link.
	MaxLink int
	// TotalHops is the sum of route lengths over all task edges (both
	// directions), i.e. the total traffic volume.
	TotalHops int
	// UsedLinks is the number of directed links carrying at least one
	// route.
	UsedLinks int
}

// AvgLink returns the mean load of the links that carry any traffic —
// TotalHops spread over UsedLinks. Together with MaxLink it separates
// "traffic is heavy everywhere" from "one link is a hotspot": the
// placement search's objective weighs both.
func (s CongestionStats) AvgLink() float64 {
	if s.UsedLinks == 0 {
		return 0
	}
	return float64(s.TotalHops) / float64(s.UsedLinks)
}

// Congestion computes static congestion of a placement: every task edge
// contributes its two directed routes, counted by the striped
// accumulator into dense per-directed-link arrays indexed by link rank
// (grid.LinkRanker) — no hash maps, no per-edge allocation — and
// reduced to the stats after the pass. Integer merges commute, so the
// stats are independent of scheduling.
func Congestion(nw *Network, tg *taskgraph.Graph, p Placement) (CongestionStats, error) {
	t, err := nw.measure(tg, p)
	return t.stats(), err
}

// CongestionHops is Congestion plus the route-length distribution: a
// histogram mapping routed distance (hops one way) to the number of
// task edges routed at that distance. The census artifact's hop_hist
// column comes from here — the same pass fills the histogram. It is
// returned separately rather than as a CongestionStats field to keep
// the stats comparable with ==.
func CongestionHops(nw *Network, tg *taskgraph.Graph, p Placement) (CongestionStats, map[int]int, error) {
	t, err := nw.measure(tg, p)
	if err != nil {
		return CongestionStats{}, nil, err
	}
	return t.stats(), HopHistogram(t.distHist).Map(), nil
}

// HopHistogram is the route-length distribution of a congestion
// measurement as a dense array: h[d] task edges are routed at distance
// d, one way, for every d up to the host's diameter.
type HopHistogram []int32

// Map returns the occupied buckets as routed distance -> task edges,
// the form CongestionHops returns and the census records.
func (h HopHistogram) Map() map[int]int {
	hist := make(map[int]int)
	for d, v := range h {
		if v != 0 {
			hist[d] = int(v)
		}
	}
	return hist
}

// measure validates the inputs and runs the accumulator.
func (nw *Network) measure(tg *taskgraph.Graph, p Placement) (tally, error) {
	if err := tg.Validate(); err != nil {
		return tally{}, err
	}
	if err := p.Validate(nw, tg.N); err != nil {
		return tally{}, err
	}
	return nw.accumulate(tg, p), nil
}

// tally is what one accumulation pass leaves behind: raw per-link and
// per-distance counts, from which every consumer derives its own
// aggregates after the pass instead of maintaining them per hop.
type tally struct {
	load     []int32 // routes per directed link, by link rank
	distHist []int32 // distHist[d] = task edges routed at distance d
	hops     int     // route lengths summed over both directions
	distSum  int64   // one-way route lengths summed: the total wirelength
}

// stats derives the congestion aggregates from the loads.
func (t *tally) stats() CongestionStats {
	s := CongestionStats{TotalHops: t.hops}
	for _, v := range t.load {
		if v > 0 {
			s.UsedLinks++
			s.MaxLink = max(s.MaxLink, int(v))
		}
	}
	return s
}

// newTally allocates an empty tally. Its histogram covers the host's
// diameter, the longest route the router can produce, so it never grows.
func (nw *Network) newTally() *tally {
	return &tally{load: make([]int32, nw.LinkSlots()), distHist: make([]int32, nw.diameter()+1)}
}

// diameter is the host's diameter: the longest route the router makes.
func (nw *Network) diameter() int {
	diam := 0
	for _, l := range nw.shape {
		if nw.torus {
			diam += l / 2
		} else {
			diam += l - 1
		}
	}
	return diam
}

// accumulate is the load accumulator: it routes both directions of
// every task edge of a validated placement, striping edge blocks over
// the internal/par pool. A block takes a free tally, or starts one, and
// routes into it; when the pass is done every tally it started is
// merged into the first, by link rank and by distance bucket, so a pass
// on one worker merges nothing. Integer sums commute, so the result is
// the same at any worker count.
func (nw *Network) accumulate(tg *taskgraph.Graph, p Placement) tally {
	first := nw.newTally() // zero-edge graphs still get one
	ts := &struct {
		sync.Mutex
		all, free []*tally
	}{all: []*tally{first}, free: []*tally{first}}
	par.Blocks(len(tg.Edges), par.Grain(len(tg.Edges), 256), func(lo, hi int) {
		ts.Lock()
		var t *tally
		if n := len(ts.free); n > 0 {
			t, ts.free = ts.free[n-1], ts.free[:n-1]
		} else {
			t = nw.newTally()
			ts.all = append(ts.all, t)
		}
		ts.Unlock()
		var buf [16]span // two routes of up to four axes stay on the stack
		load, hops := t.load, 0
		for _, e := range tg.Edges[lo:hi] {
			a, b := p[e[0]], p[e[1]]
			spans, d := nw.route(buf[:0], a, b)
			spans, _ = nw.route(spans, b, a)
			for _, sp := range spans {
				for r, k := sp.first, 0; k < sp.n; r, k = r+sp.step, k+1 {
					load[r]++
				}
			}
			hops += d
			t.distHist[d]++
		}
		t.hops += 2 * hops
		t.distSum += int64(hops)
		ts.Lock()
		ts.free = append(ts.free, t)
		ts.Unlock()
	})
	for _, s := range ts.all[1:] {
		first.hops += s.hops
		first.distSum += s.distSum
		for k, v := range s.load {
			first.load[k] += v
		}
		for d, v := range s.distHist {
			first.distHist[d] += v
		}
	}
	return *first
}
