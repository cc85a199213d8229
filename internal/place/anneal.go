// The simulated-annealing refinement pass: a budgeted, seeded local
// search that runs after the enumerated candidate space has been
// scored. Seeds are drawn from the scored candidates — front members
// first, then the best remaining by score — and a refined placement is
// admitted to the front only when it strictly Pareto-dominates its
// seed, so the pass can tighten the front but never degrade or perturb
// it. With a fixed Config.Seed the whole pass is deterministic: runs
// are sequential, the RNG is derived from the seed and the run number,
// and no wall-clock or scheduling state is read.
//
// Moves are evaluated incrementally on a netsim.LoadState: the seed
// placement is measured once (in closed form when the seed is a proved
// bijection, else by routing), and from then on a move touches only the
// O(degree) task edges incident to the moved nodes, with every
// aggregate (dilation, peak, avg-link) derived exactly — the
// incremental costs are bit-identical to a full re-measurement, which
// the periodic evalTable re-validation (and the final check on the
// returned best) enforces at runtime. That is what lets the pass run
// on pairs of any size: the old full-re-measurement loop was gated to
// a few hundred nodes.
//
// Each step runs in four parts, and nothing is ever undone:
//
//   - Propose: the load state returns the move's exact dilation from
//     the touched edges' host coordinates, routing nothing.
//   - Bound: after any move the peak and the avg-link are at least 1
//     (every guest has an edge, and every used link carries a route),
//     and the weights are finite and non-negative, so the proposed
//     dilation scored with both at 1 bounds the move's score from
//     below. A positive bound on the score's rise means the exact
//     Metropolis rule would draw its uniform here; it is drawn, and a
//     move whose bound already fails the test is rejected unrouted.
//   - Evaluate: any other move is routed into a per-link delta, which
//     gives the costs the placement would have without changing it;
//     its routed dilation is checked against the proposed one, and the
//     move is decided on those exact costs with the same uniform — so
//     every RNG stream, trajectory and artifact is the exact rule's.
//   - Apply: an accepted move's net deltas are written into the load
//     state. A rejected one is dropped, having written nothing.
//
// From a paper embedding, whose dilation is already low, most moves end
// at the bound, and a run whose every move ends there never builds the
// load state's link array.
//
// The default move set ("swap") is the full swap neighborhood of the
// placement bijection: two guest ranks exchange their host images,
// which preserves injectivity by construction — and consumes RNG draws
// exactly as the pre-incremental engine did, so a fixed seed
// reproduces its trajectories. The extended set ("all") mixes in two
// larger rearrangements that single swaps reach only through many
// uphill steps: reversing a segment of a host-axis line, and swapping
// two parallel hyperplanes of the host.

package place

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/netsim"
	"torusmesh/internal/par"
)

const (
	// DefaultAnnealSteps budgets each annealing run when
	// Config.AnnealSteps is zero.
	DefaultAnnealSteps = 256
	// DefaultAnnealSeed seeds the annealing RNG when Config.Seed is
	// zero.
	DefaultAnnealSeed = 1
	// DefaultAnnealMoves is the swap-only move repertoire — the one
	// whose RNG consumption matches the pre-incremental engine.
	DefaultAnnealMoves = "swap"
	// AnnealMovesAll enables the extended repertoire: swaps plus
	// host-axis segment reversals and axis-plane swaps.
	AnnealMovesAll = "all"
	// annealMaxSeeds caps how many scored candidates seed annealing
	// runs, bounding the pass on wide fronts; Result.AnnealSeedsSkipped
	// reports how many eligible seeds the cap dropped.
	annealMaxSeeds = 8
	// annealRevalidateEvery is the step cadence at which a run's
	// incremental costs are re-checked against a full evalTable
	// measurement; any drift aborts the search rather than silently
	// corrupting the front.
	annealRevalidateEvery = 4096
)

// evalTable measures a placement table exactly: the fused dilation pass
// and the congestion routing — the same measurements every enumerated
// candidate gets, with the dilation pass striped over edge blocks on
// the par pool (EdgeDilationStriped is bit-identical to the serial
// pass) so the per-4096-step re-validations inside an anneal run scale
// with workers instead of stalling the run. It is the annealing pass's
// ground truth: the incremental costs are validated against it.
func (s *searcher) evalTable(tab embed.Table) (Costs, error) {
	dil, avg := s.cfg.Guest.EdgeDilationStriped(tab, s.rd)
	stats, err := netsim.Congestion(s.nw, s.guest.Graph(), netsim.Placement(tab))
	if err != nil {
		return Costs{}, err
	}
	return s.costs(dil, avg, stats), nil
}

// stateCosts reads the cost vector off the incrementally maintained
// load state. The integer aggregates and the divisions that produce the
// float costs are identical to evalTable's, so the two agree
// bit-for-bit on every placement.
func (s *searcher) stateCosts(ls *netsim.LoadState) Costs {
	dil, avg := ls.Dilation()
	return s.costs(dil, avg, ls.Stats())
}

// moveScratch holds the reusable buffers of one proposed move: the
// guests it displaces and their hosts after the move.
type moveScratch struct {
	shape    grid.Shape
	strides  []int
	guests   []int32
	newHosts []int32
}

func (s *searcher) newMoveScratch() *moveScratch {
	return &moveScratch{
		shape:   s.cfg.Host.Shape,
		strides: s.cfg.Host.Shape.Strides(),
	}
}

func (ms *moveScratch) reset() {
	ms.guests = ms.guests[:0]
	ms.newHosts = ms.newHosts[:0]
}

// add records one guest displacement: g moves to host h.
func (ms *moveScratch) add(g int32, h int32) {
	ms.guests = append(ms.guests, g)
	ms.newHosts = append(ms.newHosts, h)
}

// swap proposes exchanging the host images of guests i and j.
func (ms *moveScratch) swap(ls *netsim.LoadState, i, j int) {
	ms.reset()
	ms.add(int32(i), int32(ls.HostOf(j)))
	ms.add(int32(j), int32(ls.HostOf(i)))
}

// reverseSegment proposes reversing the placement along a random
// segment of a host-axis line: the guests on hosts a..b of the line
// trade places end-for-end. Returns false when every host axis is too
// short to hold a segment.
func (ms *moveScratch) reverseSegment(ls *netsim.LoadState, rng *rand.Rand, n int) bool {
	j := rng.Intn(len(ms.shape))
	l := ms.shape[j]
	if l < 2 {
		return false
	}
	stride := ms.strides[j]
	anchor := rng.Intn(n)
	base := anchor - ((anchor/stride)%l)*stride // the line through anchor along axis j
	a := rng.Intn(l)
	b := rng.Intn(l - 1)
	if b >= a {
		b++
	}
	if a > b {
		a, b = b, a
	}
	ms.reset()
	for k := a; k <= b; k++ {
		h := base + k*stride
		ms.add(int32(ls.GuestAt(h)), int32(base+(a+b-k)*stride))
	}
	return true
}

// planeSwap proposes exchanging two parallel hyperplanes of the host:
// every guest at coordinate c1 along a random axis trades hosts with
// its projection at coordinate c2. The c1 hyperplane is walked in
// ascending host rank, one run of stride ranks per block of l·stride,
// so a proposal visits its n/l hosts and no others. Returns false when
// every host axis is too short.
func (ms *moveScratch) planeSwap(ls *netsim.LoadState, rng *rand.Rand, n int) bool {
	j := rng.Intn(len(ms.shape))
	l := ms.shape[j]
	if l < 2 {
		return false
	}
	stride := ms.strides[j]
	c1 := rng.Intn(l)
	c2 := rng.Intn(l - 1)
	if c2 >= c1 {
		c2++
	}
	off := (c2 - c1) * stride
	ms.reset()
	for blk := 0; blk < n; blk += l * stride {
		for h := blk + c1*stride; h < blk+(c1+1)*stride; h++ {
			g1, g2 := int32(ls.GuestAt(h)), int32(ls.GuestAt(h+off))
			ms.add(g1, int32(h+off))
			ms.add(g2, int32(h))
		}
	}
	return true
}

// annealRun refines the placement of one embedding by simulated
// annealing and returns the best table visited with its costs, how many
// moves the dilation bound rejected unrouted, and the move loop's wall
// time. Deterministic for a given placement, step budget, move
// repertoire and RNG state. The load state starts from netsim's closed
// form when the embedding is a proved bijection, and from the routing
// pass otherwise. start must be the placement's exact measured costs:
// the run re-derives them from the load state and fails loudly on any
// disagreement, checks every evaluated move's routed dilation against
// the proposed one, and re-validates the incremental costs against
// evalTable every annealRevalidateEvery steps and once more on the
// returned best.
func (s *searcher) annealRun(e *embed.Embedding, start Costs, steps int, rng *rand.Rand) annealOutcome {
	annealRuns.Inc()
	ls, err := netsim.NewEmbeddingLoadState(s.nw, s.guest, e)
	if err != nil {
		return annealOutcome{err: err}
	}
	cur := s.stateCosts(ls)
	if cur != start {
		return annealOutcome{err: fmt.Errorf("incremental seed costs %+v disagree with measured %+v", cur, start)}
	}
	n := s.cfg.Guest.Size()
	bestTab := make(embed.Table, n)
	ls.CopyTableInto(bestTab)
	best := start
	extended := s.cfg.AnnealMoves == AnnealMovesAll
	ms := s.newMoveScratch()
	// Geometric cooling from a temperature that makes early uphill
	// moves of about a tenth of the seed score likely, down to
	// effectively greedy.
	t0 := 1 + 0.1*start.Score
	const tEnd = 0.01
	bounded := 0
	var snap embed.Table // revalidation table snapshot, allocated on first use
	loopStart := s.cfg.Clock()
	for step := 0; step < steps; step++ {
		temp := t0 * math.Pow(tEnd/t0, float64(step)/float64(steps))
		// Propose: swaps draw (i, j) exactly as the pre-incremental
		// engine did; the extended repertoire draws the move kind first,
		// keeping the swap-only RNG stream untouched under the default.
		proposed := false
		if extended {
			switch k := rng.Intn(8); {
			case k == 6:
				proposed = ms.reverseSegment(ls, rng, n)
			case k == 7:
				proposed = ms.planeSwap(ls, rng, n)
			}
		}
		if !proposed {
			i := rng.Intn(n)
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ms.swap(ls, i, j)
		}
		dil := ls.Propose(ms.guests, ms.newHosts)
		annealSteps.Inc()
		// Decide (Bound and Evaluate in the file comment): lb never
		// exceeds the score's exact rise, so u is drawn exactly where
		// the exact rule draws it, and the margin covers the rounding
		// of math.Exp.
		var u float64
		lb := s.cfg.Objective.Score(dil, 1, 1) - cur.Score
		if lb > 0 {
			u = rng.Float64()
		}
		if lb > 0 && u >= math.Exp(-lb/temp)*(1+1e-12) {
			bounded++
			annealBounded.Inc()
			annealRejected.Inc()
		} else {
			stats, got, avg, err := ls.Evaluate()
			if err != nil {
				return annealOutcome{err: err}
			}
			if got != dil {
				return annealOutcome{err: fmt.Errorf("step %d: routed dilation %d disagrees with proposed %d", step, got, dil)}
			}
			c := s.costs(got, avg, stats)
			delta := c.Score - cur.Score
			if delta > 0 && lb <= 0 {
				u = rng.Float64()
			}
			if delta <= 0 || u < math.Exp(-delta/temp) {
				annealAccepted.Inc()
				ls.Apply()
				cur = c
				// Best-visited advances on a strictly lower score, or on
				// Pareto dominance at a tied score: a zero-weighted cost
				// (e.g. avg-link under the default 1,1,0 objective) ties
				// the score but still dominates — exactly the improvement
				// the admission gate accepts.
				if c.Score < best.Score || c.dominates(best) {
					best = c
					ls.CopyTableInto(bestTab)
				}
			} else {
				annealRejected.Inc()
			}
		}
		if (step+1)%annealRevalidateEvery == 0 {
			annealRevalidations.Inc()
			if snap == nil {
				snap = make(embed.Table, n)
			}
			ls.CopyTableInto(snap)
			full, err := s.evalTable(snap)
			if err != nil {
				return annealOutcome{err: err}
			}
			if full != cur {
				return annealOutcome{err: fmt.Errorf("step %d: incremental costs %+v drifted from full measurement %+v", step, cur, full)}
			}
		}
	}
	moves := s.cfg.Clock().Sub(loopStart)
	full, err := s.evalTable(bestTab)
	if err != nil {
		return annealOutcome{err: err}
	}
	if full != best {
		return annealOutcome{err: fmt.Errorf("best costs %+v drifted from full measurement %+v", best, full)}
	}
	return annealOutcome{tab: bestTab, got: best, bounded: bounded, moves: moves}
}

// annealSeeds selects which scored candidates seed annealing runs:
// every front member first (in front order), then the best remaining
// scored candidates by (score, index), up to annealMaxSeeds in total.
// The returned skipped count is how many eligible seeds the cap
// dropped. Deterministic: with annealing on, Search disables the
// scheduling-dependent congestion pruning, so the scored set — not
// just the front — is a pure function of the config.
func annealSeeds(scored, front []Candidate) (seeds []Candidate, skipped int) {
	inFront := make(map[int]bool, len(front))
	for _, c := range front {
		inFront[c.Index] = true
	}
	seeds = append(seeds, front...)
	rest := make([]Candidate, 0, len(scored))
	for _, c := range scored {
		if !inFront[c.Index] {
			rest = append(rest, c)
		}
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].Score != rest[j].Score {
			return rest[i].Score < rest[j].Score
		}
		return rest[i].Index < rest[j].Index
	})
	seeds = append(seeds, rest...)
	if len(seeds) > annealMaxSeeds {
		skipped = len(seeds) - annealMaxSeeds
		seeds = seeds[:annealMaxSeeds]
	}
	return seeds, skipped
}

// annealOutcome is one seed's finished run, parked until the ordered
// admission loop reaches its position: the best table and its costs,
// the moves the dilation bound rejected, the move loop's wall time and
// the whole run's, or the error that ended the run.
type annealOutcome struct {
	tab     embed.Table
	got     Costs
	bounded int
	moves   time.Duration
	elapsed time.Duration
	err     error
}

// annealFront runs the refinement pass: each selected seed (annealSeeds
// over the scored cross product) gets one annealing run, refined
// placements strictly dominating their seed become annealed candidates
// (indices continuing past the enumerated variants), and the front is
// recomputed over the union. Counters and tables are recorded on res /
// tables for the caller.
//
// Runs execute concurrently on the par pool — each is a self-contained
// LoadState with its own RNG derived from (Config.Seed, seed position),
// so no state is shared — but everything order-dependent happens in a
// second, strictly seed-ordered loop over the parked outcomes: error
// selection (the lowest seed position wins, as when runs were
// sequential), run counting, and admission. The result is therefore
// independent of scheduling and GOMAXPROCS; the determinism tests pin
// it.
func (s *searcher) annealFront(variants []variantSpec, scored, front []Candidate, res *Result, tables map[int]embed.Table) ([]Candidate, error) {
	cfg := s.cfg
	seeds, skipped := annealSeeds(scored, front)
	res.AnnealSeedsSkipped = skipped
	noun := "swaps"
	if cfg.AnnealMoves == AnnealMovesAll {
		noun = "moves"
	}
	outs := make([]annealOutcome, len(seeds))
	par.Blocks(len(seeds), 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			seed := seeds[k]
			t0 := cfg.Clock()
			e, err := s.build(variants[seed.Index])
			if err != nil {
				outs[k] = annealOutcome{err: fmt.Errorf("place: anneal: rebuilding seed %d: %v", seed.Index, err)}
				continue
			}
			rng := rand.New(rand.NewSource(cfg.Seed + int64(k)))
			out := s.annealRun(e, seed.Costs, cfg.AnnealSteps, rng)
			if out.err != nil {
				out.err = fmt.Errorf("place: anneal: seed %d: %v", seed.Index, out.err)
			}
			out.elapsed = cfg.Clock().Sub(t0)
			outs[k] = out
		}
	})
	var refined []Candidate
	for k, seed := range seeds {
		out := outs[k]
		if out.err != nil {
			return nil, out.err
		}
		got := out.got
		res.Annealed++
		res.AnnealRuns = append(res.AnnealRuns, AnnealRunStat{
			SeedIndex: seed.Index,
			Steps:     cfg.AnnealSteps,
			Bounded:   out.bounded,
			Moves:     out.moves,
			Elapsed:   out.elapsed,
		})
		c := Candidate{
			Index:         len(variants) + k,
			Strategy:      "anneal",
			Annealed:      true,
			AnnealedFrom:  seed.Index,
			EmbedStrategy: fmt.Sprintf("anneal[%d %s from #%d]", cfg.AnnealSteps, noun, seed.Index),
			Costs:         got,
		}
		// Admission is strict dominance over the seed: an annealed
		// placement never replaces an equal or incomparable one, so the
		// pass cannot degrade the front — and never emits a point its
		// own seed dominates.
		if !got.dominates(seed.Costs) {
			continue
		}
		tables[c.Index] = out.tab
		refined = append(refined, c)
	}
	if len(refined) == 0 {
		return front, nil
	}
	out := paretoFront(append(append([]Candidate(nil), front...), refined...))
	// Wins are counted on the final front, after the dedup of identical
	// cost vectors: an admitted candidate that ties another refined
	// placement exactly did not add a front member.
	for _, c := range out {
		if c.Annealed {
			res.AnnealWins++
		}
	}
	return out, nil
}
