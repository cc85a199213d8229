package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"torusmesh/internal/grid"
	"torusmesh/internal/place"
)

// searchPair is one search of the cycle.
type searchPair struct{ guest, host, moves string }

// searchCycle spans the pair sizes the search engine serves: two small
// pairs, three mid-size pairs, two of them with the full move
// repertoire, and the 16³ and 32³ swap searches, which are mostly
// netsim.LoadState set-up. The count is odd and the fourth pair's cost
// sits between its neighbours', so the median search time falls inside
// one pair's times instead of between two pairs'.
var searchCycle = []searchPair{
	{"torus:8x2", "mesh:4x4", place.DefaultAnnealMoves},
	{"torus:12x3", "torus:9x4", place.DefaultAnnealMoves},
	{"torus:8x8x8", "mesh:16x32", place.AnnealMovesAll},
	{"torus:16x8x8", "mesh:32x32", place.DefaultAnnealMoves},
	{"mesh:32x32", "torus:8x8x16", place.AnnealMovesAll},
	{"torus:16x16x16", "mesh:16x16x16", place.DefaultAnnealMoves},
	{"torus:32x32x32", "mesh:32x32x32", place.DefaultAnnealMoves},
}

// searchLoad times place.Search with annealing on, over a fixed cycle of
// pairs. Candidate construction, congestion scoring and the annealing
// kernels (netsim.LoadState set-up and moves) do the work.
type searchLoad struct {
	sc    scale
	cfgs  []place.Config
	want  [][sha256.Size]byte // per pair, the artifact hash of the first cycle
	last  []*place.Result
	times [][]time.Duration // per pair, the traced search times
}

func (w *searchLoad) setup() error {
	w.cfgs = nil
	for _, p := range w.sc.searches {
		g, err := grid.ParseSpec(p.guest)
		if err != nil {
			return err
		}
		h, err := grid.ParseSpec(p.host)
		if err != nil {
			return err
		}
		w.cfgs = append(w.cfgs, place.Config{
			Guest:       g,
			Host:        h,
			CapDilation: true,
			Rotations:   true,
			Anneal:      true,
			AnnealMoves: p.moves,
			Strategies:  place.DefaultStrategies(),
		})
	}
	if w.want == nil {
		w.want = make([][sha256.Size]byte, len(w.cfgs))
	}
	w.times = make([][]time.Duration, len(w.cfgs))
	for _, cfg := range w.cfgs {
		if _, err := place.Search(cfg); err != nil {
			return fmt.Errorf("search warm-up: %v", err)
		}
	}
	return nil
}

func (w *searchLoad) measure(window time.Duration, tr *tracer) (*sample, error) {
	s := &sample{}
	for end := time.Now().Add(window); len(s.jobs) == 0 || time.Now().Before(end); {
		results := make([]*place.Result, len(w.cfgs))
		var cycle time.Duration
		for i, cfg := range w.cfgs {
			var id int64
			if tr != nil {
				id = tr.newID()
				cfg.Strategies = tr.strategies(cfg.Strategies, id)
			}
			start := time.Now()
			res, err := place.Search(cfg)
			stop := time.Now()
			if err != nil {
				return nil, fmt.Errorf("search %s -> %s: %v", cfg.Guest, cfg.Host, err)
			}
			if tr != nil {
				tr.record(id, 0, placeSearch, start, stop)
				w.times[i] = append(w.times[i], stop.Sub(start))
			}
			s.ops = append(s.ops, stop.Sub(start))
			cycle += stop.Sub(start)
			s.attempted++
			if err := w.verify(i, res); err != nil {
				logf("search %s -> %s: %v", cfg.Guest, cfg.Host, err)
				s.failed++
			}
			results[i] = res
		}
		s.jobs = append(s.jobs, cycle)
		w.last = results
	}
	s.perSec = float64(len(w.cfgs)) / quantile(s.jobs, 0.5).Seconds()
	return s, nil
}

// verify checks that a pair's artifact is byte-identical to its first
// cycle's.
func (w *searchLoad) verify(i int, res *place.Result) error {
	data, err := res.EncodeBytes()
	if err != nil {
		return err
	}
	return sameBytes(data, &w.want[i])
}

func (w *searchLoad) check(*sample) error { return nil }

func (w *searchLoad) layers(tr *tracer, m, diag map[string]float64) ([]netsimCase, error) {
	placeCounts(w.last, m)
	m["embed.constructs"] = tr.perUnit(embedConstruct, placeSearch) * float64(len(w.cfgs))
	var steps int
	var annealing time.Duration
	var cases []netsimCase
	for i, res := range w.last {
		for _, run := range res.AnnealRuns {
			steps += run.Steps
			annealing += run.Elapsed
		}
		diag["place.search_ms."+pairKey(w.cfgs[i].Guest, w.cfgs[i].Host)] = ms(quantile(w.times[i], 0.5))
		cases = append(cases, netsimCase{w.cfgs[i].Guest, w.cfgs[i].Host, res.BestEmbedding.Table()})
	}
	if annealing > 0 {
		diag["place.anneal_steps_per_s"] = float64(steps) / annealing.Seconds()
	}
	return cases, nil
}

// placeCounts fills the place layer's counts from one unit of work's
// search results.
func placeCounts(results []*place.Result, m map[string]float64) {
	var candidates, capped, pruned, annealed, wins, steps int
	for _, res := range results {
		candidates += res.Candidates
		capped += res.Capped
		pruned += res.Pruned
		annealed += res.Annealed
		wins += res.AnnealWins
		for _, run := range res.AnnealRuns {
			steps += run.Steps
		}
	}
	m["place.searches"] = float64(len(results))
	m["place.candidates"] = float64(candidates)
	m["place.capped"] = float64(capped)
	m["place.pruned"] = float64(pruned)
	m["place.anneal_runs"] = float64(annealed)
	m["place.anneal_steps"] = float64(steps)
	if annealed > 0 {
		m["place.anneal_win_ratio"] = float64(wins) / float64(annealed)
	}
}

func (w *searchLoad) close() {}

// artifactDigest hashes the per-pair artifact hashes of the first cycle.
func (w *searchLoad) artifactDigest() [sha256.Size]byte {
	h := sha256.New()
	for _, sum := range w.want {
		h.Write(sum[:])
	}
	return [sha256.Size]byte(h.Sum(nil))
}
