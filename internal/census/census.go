// Package census is the sharded coverage engine behind the repo's
// central empirical claim: which fraction of same-size torus/mesh pairs
// the paper's constructions embed, and at what cost. Run evaluates the
// ordered (shape, kind) × (shape, kind) pair space of one size —
// shapes enumerated by internal/catalog and passed in via Config — on
// an internal/par worker pool, producing one PairResult per pair:
// strategy, measured dilation, average dilation, optional netsim
// peak-link congestion, wall time, and the failure reason split by
// stage (construction vs verification).
//
// The pair space partitions deterministically into shards (pair i
// belongs to shard i mod m), so production-scale sweeps split across
// processes: each process runs one shard, serializes its census to a
// versioned JSON artifact, and Merge recombines the artifacts into the
// same census a single unsharded run would have produced, bit for bit.
// The serialized schema is pinned by a golden-file test (testdata/);
// changing it requires bumping ArtifactVersion.
//
// A census can additionally carry a placement column: Config.Place
// accepts an opaque PlaceFunc (the package stays independent of the
// placement engine, the way Config.Embed keeps it independent of the
// construction dispatcher), and each embeddable pair then records the
// best congestion-aware placement found next to its paper-baseline
// dilation and congestion. cmd/sweep wires this to internal/place via
// place.CensusFunc.
package census

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/netsim"
	"torusmesh/internal/par"
)

// EmbedFunc builds the embedding for one pair — typically core.Embed.
// It must be safe for concurrent calls.
type EmbedFunc func(g, h grid.Spec) (*embed.Embedding, error)

// PlaceFunc runs a congestion-aware placement search for one pair and
// returns the best candidate's summary — typically an adapter around
// place.Search (the census engine stays independent of the placement
// engine; cmd/sweep and the top-level API wire the two together). It
// must be safe for concurrent calls and deterministic for a given pair,
// or merged artifacts stop reproducing unsharded runs bit for bit.
type PlaceFunc func(g, h grid.Spec) (*PlaceSummary, error)

// PlaceSummary records the best placement found for a pair, next to the
// paper-baseline dilation and congestion columns of its PairResult.
type PlaceSummary struct {
	// Desc names the winning candidate's strategy and symmetry variant,
	// e.g. "paper gperm=[1 0]".
	Desc string `json:"desc,omitempty"`
	// Strategy is the construction chain of the winning embedding.
	Strategy string `json:"strategy,omitempty"`
	// Dilation, Peak, AvgLink and Score are the winner's measured costs
	// under the search objective.
	Dilation int     `json:"dilation,omitempty"`
	Peak     int     `json:"peak,omitempty"`
	AvgLink  float64 `json:"avg_link,omitempty"`
	Score    float64 `json:"score,omitempty"`
	// Error records a failed search (the other fields are then zero).
	Error string `json:"error,omitempty"`
}

// Config describes one census run.
type Config struct {
	// Size is the number of nodes; every shape must multiply out to it.
	Size int
	// MaxDim is the shape-dimension cap used during enumeration
	// (0 = unlimited). Recorded in the artifact and validated by Merge.
	MaxDim int
	// Shapes is the canonical shape list of the pair space, typically
	// catalog.CanonicalShapesOfSize(Size, MaxDim).
	Shapes []grid.Shape
	// Shard/Shards select the slice of the pair space this run covers:
	// pair i is evaluated iff i mod Shards == Shard. The zero value
	// (0/0) means the whole space.
	Shard, Shards int
	// Metrics measures dilation and average dilation for every
	// embeddable pair and checks the paper's dilation guarantee.
	Metrics bool
	// Congestion additionally records every embeddable pair's peak
	// directed-link load under dimension-ordered routing: in closed
	// form for a proved bijection, by routing the guest's edges
	// through the host otherwise.
	Congestion bool
	// Place, when set, additionally runs a placement search for every
	// embeddable pair and records the best-found candidate next to the
	// baseline columns. Requires Congestion (the baseline peak is the
	// number the search is compared against) and a PlaceSpec.
	Place PlaceFunc
	// PlaceSpec canonically describes the placement search's settings
	// (typically place.Config.Spec(), returned by place.CensusFunc).
	// It is recorded in the artifact and compared by Merge, so shards
	// searched under different settings — which would silently break
	// the bit-for-bit merge invariant — are rejected.
	PlaceSpec string
	// Embed builds each pair's embedding; it is required. Every
	// embedding is verified for injectivity.
	Embed EmbedFunc
	// Skip, when set, drops pairs it reports as already evaluated
	// before they are scheduled — the resume filter. A skipping run
	// covers only part of its stripe, so its census is not a complete
	// shard artifact; it exists to be folded into a partial artifact by
	// the distributed driver or a resumed sweep.
	Skip func(pair int) bool
	// OnResult, when set, is called once per evaluated pair as soon as
	// its result is final — in completion order, not index order, but
	// never concurrently (Run serializes the calls). This is how
	// workers stream NDJSON records while the census is still running.
	// The callback must not retain the pointer past its return.
	OnResult func(*PairResult)
	// Interrupt, when set, is polled between pairs on every worker;
	// once it returns true, no further pairs are evaluated and Run
	// returns ErrInterrupted instead of a partial census. This is how
	// a cancelled context reaches a run already in flight (the
	// distributed driver's in-process workers poll ctx.Err here).
	Interrupt func() bool
	// Clock substitutes the wall clock behind the census's Elapsed and
	// each pair's Wall measurement. Nil means time.Now. Wall times
	// serialize as json:"-" and never enter artifacts, so this is a
	// pure testability knob, aligned with serve.Config's.
	Clock func() time.Time
}

// ErrInterrupted is returned by Run when Config.Interrupt stopped the
// evaluation early.
var ErrInterrupted = errors.New("census: run interrupted")

// Failure stages of a PairResult.
const (
	// StageConstruct marks pairs no construction covers.
	StageConstruct = "construct"
	// StageVerify marks pairs whose construction succeeded but whose
	// embedding failed verification or broke its dilation guarantee —
	// always a library bug, reported distinctly from mere non-coverage.
	StageVerify = "verify"
)

// PairResult is the outcome of one ordered (guest, host) pair.
type PairResult struct {
	// Index is the pair's position in the deterministic enumeration of
	// the pair space; it determines the pair's shard.
	Index int    `json:"index"`
	Guest string `json:"guest"`
	Host  string `json:"host"`
	// Strategy is the full name of the construction that carried the
	// pair ("" when construction failed).
	Strategy string `json:"strategy,omitempty"`
	// Predicted is the paper's dilation guarantee (0 = none recorded).
	Predicted int `json:"predicted,omitempty"`
	// Dilation and AvgDilation are measured over every guest edge
	// (metrics censuses only).
	Dilation    int     `json:"dilation,omitempty"`
	AvgDilation float64 `json:"avg_dilation,omitempty"`
	// Congestion is the peak directed-link load under dimension-ordered
	// routing (congestion censuses only).
	Congestion int `json:"congestion,omitempty"`
	// HopHist is the route-length distribution of the baseline
	// placement: for each routed distance (hops one way; 0 for
	// co-located endpoints), the number of guest edges at that distance,
	// encoded as a JSON object from distance to edges. It comes out of
	// the same measurement as Congestion (congestion censuses only).
	HopHist HopHist `json:"hop_hist,omitempty"`
	// Place is the best placement the search found for the pair
	// (placement censuses only; nil for failed pairs).
	Place *PlaceSummary `json:"place,omitempty"`
	// Failure is the failure reason, with FailureStage saying whether
	// construction or verification failed.
	Failure      string `json:"failure,omitempty"`
	FailureStage string `json:"failure_stage,omitempty"`
	// Wall is the evaluation wall time of the pair. It is deliberately
	// excluded from the JSON artifact so that artifacts are
	// deterministic and shard merges reproduce unsharded censuses bit
	// for bit; report timing out of band.
	Wall time.Duration `json:"-"`
}

// Header is what a census covers: its schema version, pair space,
// shard and measured columns. It leads both encodings — the JSON
// document (Census) and the NDJSON stream's header line (StreamHeader)
// embed it, and encoding/json writes its fields at the embedding's
// position.
type Header struct {
	Version    int      `json:"version"`
	Size       int      `json:"size"`
	MaxDim     int      `json:"maxdim"`
	Shard      int      `json:"shard"`
	Shards     int      `json:"shards"`
	Metrics    bool     `json:"metrics"`
	Congestion bool     `json:"congestion"`
	Placed     bool     `json:"placed"`
	PlaceSpec  string   `json:"place_spec,omitempty"`
	Shapes     []string `json:"shapes"`
	// SpacePairs is the size of the full pair space; Census.Pairs is
	// the number evaluated in the artifact's shard.
	SpacePairs int `json:"space_pairs"`
}

// check rejects headers from other schema versions and structurally
// invalid shard labels; what names the encoding in the shard error.
func (h *Header) check(what string) error {
	if h.Version != ArtifactVersion {
		return fmt.Errorf("census: artifact version %d is incompatible (want %d)", h.Version, ArtifactVersion)
	}
	if h.Shards < 1 || h.Shard < 0 || h.Shard >= h.Shards {
		return fmt.Errorf("census: %s has invalid shard %d/%d", what, h.Shard, h.Shards)
	}
	return nil
}

// Census is the (mergeable, serializable) outcome of a census run. All
// aggregate fields are derived from Results; Merge recomputes them.
type Census struct {
	Header
	Pairs             int            `json:"pairs"`
	Embeddable        int            `json:"embeddable"`
	ConstructFailures int            `json:"construct_failures"`
	VerifyFailures    int            `json:"verify_failures"`
	ByStrategy        map[string]int `json:"by_strategy"`
	// Histograms is the per-strategy cost-distribution block: for each
	// strategy key, how many embeddable pairs it carried at each
	// measured dilation (metrics censuses) and at each peak link load
	// (congestion censuses). Derived from Results like the other
	// aggregates; absent from censuses with neither metrics nor
	// congestion.
	Histograms map[string]*StrategyHistogram `json:"histograms,omitempty"`
	Results    []PairResult                  `json:"results"`
	// Elapsed is the run's wall time, excluded from the artifact for
	// the same determinism reason as PairResult.Wall.
	Elapsed time.Duration `json:"-"`
}

// StrategyKey truncates a strategy name at the first '/' or '[' so
// construction variants group together in coverage tallies — the single
// home of the truncation rule shared by the census aggregates and the
// sweep reports.
func StrategyKey(strategy string) string {
	for i := 0; i < len(strategy); i++ {
		if strategy[i] == '/' || strategy[i] == '[' {
			return strategy[:i]
		}
	}
	return strategy
}

// StrategyHistogram is one strategy's entry in the artifact's
// histogram block. Map keys are the measured cost values; map values
// count the embeddable pairs the strategy carried at that cost.
type StrategyHistogram struct {
	Dilation   map[int]int `json:"dilation,omitempty"`
	Congestion map[int]int `json:"congestion,omitempty"`
}

// kinds is the fixed kind order of the pair space enumeration.
var kinds = [2]grid.Kind{grid.Mesh, grid.Torus}

// Specs returns the (shape, kind) spec list of the config's pair space
// in enumeration order: each shape contributes its mesh then its torus,
// and pair i embeds guest Specs[i/n] into host Specs[i%n] where
// n = len(Specs). The distributed driver validates streamed records
// against this enumeration.
func (cfg *Config) Specs() []grid.Spec {
	out := make([]grid.Spec, 0, 2*len(cfg.Shapes))
	for _, s := range cfg.Shapes {
		for _, k := range kinds {
			out = append(out, grid.Spec{Kind: k, Shape: s})
		}
	}
	return out
}

// header returns the header a census of this config carries, reading
// the zero shard spec as 0/1.
func (cfg *Config) header() Header {
	shards := cfg.Shards
	if shards == 0 {
		shards = 1
	}
	specs := 2 * len(cfg.Shapes)
	return Header{
		Version:    ArtifactVersion,
		Size:       cfg.Size,
		MaxDim:     cfg.MaxDim,
		Shard:      cfg.Shard,
		Shards:     shards,
		Metrics:    cfg.Metrics,
		Congestion: cfg.Congestion,
		Placed:     cfg.Place != nil,
		PlaceSpec:  cfg.PlaceSpec,
		Shapes:     shapeStrings(cfg.Shapes),
		SpacePairs: specs * specs,
	}
}

// validate normalizes the zero shard spec and rejects misconfiguration.
func (cfg *Config) validate() error {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Shards < 1 || cfg.Shard < 0 || cfg.Shard >= cfg.Shards {
		return fmt.Errorf("census: shard %d/%d out of range", cfg.Shard, cfg.Shards)
	}
	if cfg.Embed == nil {
		return fmt.Errorf("census: Embed must be set")
	}
	if cfg.Place != nil && !cfg.Congestion {
		return fmt.Errorf("census: placement search requires the congestion baseline")
	}
	if (cfg.Place != nil) != (cfg.PlaceSpec != "") {
		return fmt.Errorf("census: Place and PlaceSpec must be set together")
	}
	for _, s := range cfg.Shapes {
		if s.Size() != cfg.Size {
			return fmt.Errorf("census: shape %s has %d nodes, want %d", s, s.Size(), cfg.Size)
		}
	}
	return nil
}

// Run evaluates the config's shard of the pair space and returns its
// census. Pairs are striped across an internal/par worker pool; the
// result is deterministic regardless of worker count or scheduling.
func Run(cfg Config) (*Census, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := cfg.Clock()
	specs := cfg.Specs()
	c := &Census{Header: cfg.header()}
	indices := make([]int, 0, (c.SpacePairs+cfg.Shards-1)/cfg.Shards)
	for i := cfg.Shard; i < c.SpacePairs; i += cfg.Shards {
		if cfg.Skip != nil && cfg.Skip(i) {
			continue
		}
		indices = append(indices, i)
	}
	ev := newEvaluator(&cfg, specs, indices)
	results := make([]PairResult, len(indices))
	var emitMu sync.Mutex
	var interrupted atomic.Bool
	par.Blocks(len(indices), 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			if cfg.Interrupt != nil && (interrupted.Load() || cfg.Interrupt()) {
				interrupted.Store(true)
				return
			}
			i := indices[k]
			results[k] = ev.pair(i, i/len(specs), i%len(specs))
			countPair(&results[k])
			if cfg.OnResult != nil {
				emitMu.Lock()
				cfg.OnResult(&results[k])
				emitMu.Unlock()
			}
		}
	})
	if interrupted.Load() {
		return nil, ErrInterrupted
	}
	c.Results = results
	c.recount()
	c.Elapsed = cfg.Clock().Sub(start)
	return c, nil
}

func shapeStrings(shapes []grid.Shape) []string {
	out := make([]string, len(shapes))
	for i, s := range shapes {
		out[i] = s.String()
	}
	return out
}

// recount rebuilds every aggregate field from Results, including the
// histogram block of metrics and congestion censuses.
func (c *Census) recount() {
	c.Pairs = len(c.Results)
	c.Embeddable, c.ConstructFailures, c.VerifyFailures = 0, 0, 0
	c.ByStrategy = map[string]int{}
	for i := range c.Results {
		switch c.Results[i].FailureStage {
		case StageConstruct:
			c.ConstructFailures++
		case StageVerify:
			c.VerifyFailures++
		default:
			c.Embeddable++
			c.ByStrategy[StrategyKey(c.Results[i].Strategy)]++
		}
	}
	c.Histograms = nil
	if !c.Metrics && !c.Congestion {
		return
	}
	c.Histograms = map[string]*StrategyHistogram{}
	c.forStrategy(func(key string, r *PairResult) {
		h := c.Histograms[key]
		if h == nil {
			h = &StrategyHistogram{}
			c.Histograms[key] = h
		}
		if c.Metrics {
			if h.Dilation == nil {
				h.Dilation = map[int]int{}
			}
			h.Dilation[r.Dilation]++
		}
		if c.Congestion {
			if h.Congestion == nil {
				h.Congestion = map[int]int{}
			}
			h.Congestion[r.Congestion]++
		}
	})
}

// forStrategy visits every embeddable result under its strategy key —
// the one grouping rule the artifact-level summaries share.
func (c *Census) forStrategy(fn func(key string, r *PairResult)) {
	for i := range c.Results {
		if c.Results[i].FailureStage != "" {
			continue
		}
		fn(StrategyKey(c.Results[i].Strategy), &c.Results[i])
	}
}

// PeakCongestion returns the worst peak-link load per strategy key.
// Meaningful for congestion censuses only.
func (c *Census) PeakCongestion() map[string]int {
	out := map[string]int{}
	c.forStrategy(func(key string, r *PairResult) {
		if r.Congestion > out[key] {
			out[key] = r.Congestion
		}
	})
	return out
}

// PlaceImprovements returns, per strategy key, how many embeddable
// pairs the placement search strictly improved: a best-found peak link
// load below the baseline construction's. Meaningful for placement
// censuses only.
func (c *Census) PlaceImprovements() map[string]int {
	out := map[string]int{}
	c.forStrategy(func(key string, r *PairResult) {
		if r.Place != nil && r.Place.Error == "" && r.Place.Peak < r.Congestion {
			out[key]++
		}
	})
	return out
}

// SlowestPair returns the result whose evaluation took the longest, or
// nil for an empty census. Wall times exist only in censuses produced
// by Run in this process — they are not serialized, so decoded or
// merged artifacts report nothing useful here.
func (c *Census) SlowestPair() *PairResult {
	var worst *PairResult
	for i := range c.Results {
		if worst == nil || c.Results[i].Wall > worst.Wall {
			worst = &c.Results[i]
		}
	}
	return worst
}

// evaluator carries the per-run immutable state the pair workers share:
// the config, and per spec, indexed by its position in the spec list,
// its name and — when metrics or congestion are on — its compiled
// distancer, guest and network, built up front so the parallel loop
// stays lock-free and formats no name. A guest builds its edge list on
// the first pair that routes it (netsim.Guest), so a guest whose every
// pair takes the closed form never builds one. Every pair is evaluated
// the same way (measure); the measurement routes are the embedding's
// own.
type evaluator struct {
	cfg        *Config
	specs      []grid.Spec
	names      []string              // Spec.String() of each spec
	distancers []*grid.RankDistancer // compiled distance of each host this shard uses
	guests     []*netsim.Guest       // congestion guest of each spec
	networks   []*netsim.Network     // routing machine of each spec
}

func newEvaluator(cfg *Config, specs []grid.Spec, indices []int) *evaluator {
	ev := &evaluator{cfg: cfg, specs: specs, names: make([]string, len(specs))}
	for si, sp := range specs {
		ev.names[si] = sp.String()
	}
	if len(specs) == 0 {
		return ev
	}
	// Only the hosts this shard's pair stripe actually touches get a
	// compiled distancer: a many-way shard of a large space visits a
	// fraction of the spec list, and materialization is O(Size·dim) per
	// spec. Guests and networks build nothing node-sized until a pair
	// routes through them, so every spec gets one.
	hostUsed := make([]bool, len(specs))
	for _, i := range indices {
		hostUsed[i%len(specs)] = true
	}
	// A materialized distancer decodes without division, which pays off
	// on the table pass of kernels at or below the materialization
	// threshold; above it no kernel has a table, and the precompute would
	// be dead weight.
	if cfg.Metrics {
		ev.distancers = make([]*grid.RankDistancer, len(specs))
		for si, sp := range specs {
			if hostUsed[si] {
				rd := sp.NewRankDistancer()
				if cfg.Size <= embed.MaterializeThreshold() {
					rd.Materialize()
				}
				ev.distancers[si] = rd
			}
		}
	}
	if cfg.Congestion {
		ev.guests = make([]*netsim.Guest, len(specs))
		ev.networks = make([]*netsim.Network, len(specs))
		for si, sp := range specs {
			ev.guests[si] = netsim.NewGuest(sp)
			ev.networks[si] = netsim.New(sp)
		}
	}
	return ev
}

// pair evaluates one ordered pair: guest specs[gi] into host specs[hi].
func (ev *evaluator) pair(idx, gi, hi int) PairResult {
	now := ev.cfg.Clock
	start := now()
	pr := PairResult{Index: idx, Guest: ev.names[gi], Host: ev.names[hi]}
	g, h := ev.specs[gi], ev.specs[hi]
	e, err := ev.cfg.Embed(g, h)
	if err != nil {
		pr.Failure, pr.FailureStage = err.Error(), StageConstruct
		pr.Wall = now().Sub(start)
		return pr
	}
	pr.Strategy, pr.Predicted = e.Strategy, e.Predicted
	ev.measure(&pr, e, gi, hi)
	pr.Wall = now().Sub(start)
	return pr
}

// measure verifies the embedding and fills in the requested metrics,
// each by the route the embedding picks (Verify, EdgeDilation,
// netsim.EmbeddingCongestion): a proved bijection — a carry-free
// kernel whose components each map their points to distinct images —
// is not scanned, and a carry-free digit kernel measures its dilation
// in closed form, so a proved bijection needs no table at all,
// congestion included.
func (ev *evaluator) measure(pr *PairResult, e *embed.Embedding, gi, hi int) {
	if err := e.Verify(); err != nil {
		pr.Failure, pr.FailureStage = err.Error(), StageVerify
		return
	}
	if ev.cfg.Metrics {
		pr.Dilation, pr.AvgDilation = e.EdgeDilation(ev.distancers[hi])
		if !checkPredicted(pr, e, pr.Dilation, ev.specs[gi], ev.specs[hi]) {
			return
		}
	}
	if ev.cfg.Congestion {
		ev.congest(pr, gi, hi, e)
	}
}

// checkPredicted records a verification-stage failure when the measured
// dilation exceeds the paper's recorded guarantee, reporting whether
// the pair survived.
func checkPredicted(pr *PairResult, e *embed.Embedding, measured int, g, h grid.Spec) bool {
	if e.Predicted > 0 && measured > e.Predicted {
		pr.Failure = fmt.Sprintf("%s: measured dilation %d exceeds guaranteed %d for %s -> %s",
			e.Strategy, measured, e.Predicted, g, h)
		pr.FailureStage = StageVerify
		return false
	}
	return true
}

// congest records the peak directed-link load of routing the guest's
// edges through the host under the embedding's placement, plus the
// route-length histogram the same measurement computes.
func (ev *evaluator) congest(pr *PairResult, gi, hi int, e *embed.Embedding) {
	stats, hops, err := netsim.EmbeddingCongestion(ev.networks[hi], ev.guests[gi], e)
	if err != nil {
		pr.Failure, pr.FailureStage = err.Error(), StageVerify
		return
	}
	pr.Congestion = stats.MaxLink
	pr.HopHist = hopHist(hops)
	ev.place(pr, ev.specs[gi], ev.specs[hi])
}

// place runs the configured placement search for the pair and records
// the winner next to the baseline columns. A failed search is recorded
// in the summary's Error field rather than failing the pair: the
// baseline embedding is fine, the optimizer just found nothing.
func (ev *evaluator) place(pr *PairResult, g, h grid.Spec) {
	if ev.cfg.Place == nil {
		return
	}
	ps, err := ev.cfg.Place(g, h)
	if err != nil {
		pr.Place = &PlaceSummary{Error: err.Error()}
		return
	}
	pr.Place = ps
}
