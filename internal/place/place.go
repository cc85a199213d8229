// Package place is the congestion-aware placement engine: it turns the
// repo's measurement stack (embed kernels for construction, netsim for
// routing, par for parallelism) into an optimizer that searches, for one
// (guest, host) pair, over a space of candidate embeddings and returns
// the Pareto front over the three placement costs
//
//	(dilation, peakLinkLoad, meanUsedLinkLoad)
//
// together with the scalarized winner minimizing
//
//	score = α·dilation + β·peakLinkLoad + γ·meanUsedLinkLoad
//
// where dilation is the measured worst edge stretch, peakLinkLoad the
// largest number of guest-edge routes crossing any directed host link
// under dimension-ordered routing (netsim.EmbeddingCongestion), and
// meanUsedLinkLoad the traffic volume spread over the links that carry
// any (CongestionStats.AvgLink).
//
// # The candidate space
//
// The paper's constructions minimize dilation; congestion is decided by
// symmetries they leave free. Candidates are generated as
//
//	post ∘ base(gσ → hσ) ∘ pre
//
// from five deterministic generators:
//
//   - Strategies: alternative base constructions for the pair. The
//     first strategy is the paper baseline (core.Embed's pick); callers
//     typically add core.EmbedViaPrimes, whose route through the
//     all-primes intermediate spreads guest edges across host
//     dimensions differently.
//   - Host axis permutations: embed into the axis-permuted host hσ,
//     then permute back. The permutation back is an isometry — dilation
//     is unchanged — but it reorders the dimensions that
//     dimension-ordered routing corrects first, which redistributes
//     link load. The full permutation group matters here (swapping two
//     equal-length host axes swaps XY- for YX-routing), so the
//     generator enumerates perm.All, not just distinct orderings.
//   - Guest axis permutations: relabel the guest's axes before
//     construction. Unlike the host side this changes which
//     construction variant fires and hence the dilation too; only
//     distinct orderings are enumerated (catalog.AxisOrderings),
//     because permutations of equal-length guest axes differ by a guest
//     automorphism, which maps the guest edge set onto itself and
//     leaves every metric unchanged.
//   - Digit rotations: pre/post-compose a per-axis cyclic coordinate
//     rotation (embed.Rotate). On toruses rotations are automorphisms
//     that commute with dimension-ordered routing — metric-invariant —
//     so the generator emits them only for mesh guests and mesh hosts,
//     where they are genuine (if usually dilation-hostile) candidates.
//   - Intermediate rotations: strategies that route through an
//     intermediate stage (the prime refinement's all-primes graph)
//     rebuild around a rotated intermediate (core.EmbedViaPrimesMid),
//     changing which intermediate nodes the second stage coarsens
//     together — genuinely new embeddings, enumerated for torus
//     intermediates too.
//
// Generators are tiered — strategies, then host permutations, then
// guest permutations, then rotations, then intermediate rotations, then
// the permutation cross product — so a small Budget still samples every
// generator before the cross product exhausts it.
//
// # Evaluation
//
// Candidates are scored concurrently on the internal/par pool, but the
// construction half is shared: each distinct (strategy, guest
// symmetries, intermediate rotation, permuted host shape) is built
// once, and host-side symmetries — pure relabelings of host ranks — are
// post-composed onto the cached base (embed.PostCompose). A base whose
// digit kernel is disjoint compiles with them into one digit kernel per
// candidate, so the candidate stays a kernel of Σ l_i contributions
// until it is scored; any other base is materialized once and fused
// with each relabeling's table. On hosts with equal-length axes the
// whole host-permutation tier shares one construction.
//
// Each worker verifies its candidate (strategies are caller-injected,
// so a broken construction is discarded and counted, not fatal — only
// the baseline is load-bearing) and measures its dilation and average
// dilation, through embed's Verify and EdgeDilation. Both take the
// digit kernel's closed forms first: a disjoint kernel with distinct
// axis images is a proved bijection, and a carry-free kernel's
// dilation follows from its Σ l_i axis edges. Candidates without a
// closed form are materialized, scanned, and measured in one fused
// pass over the guest's edge blocks. Only then does the worker measure
// congestion through netsim.EmbeddingCongestion: a proved bijection in
// closed form from the same axis images, with no table, and any other
// candidate by routing the guest's edges over its table — the
// expensive half. So a proved bijection is materialized only when it
// seeds annealing, and the guest's edge list is built only when a
// candidate is routed or annealing starts. Two gates skip that half
// early: a candidate whose measured dilation exceeds the cap
// (CapDilation pins the cap to the baseline's measured dilation) is
// discarded, and a candidate whose best conceivable cost vector
// (dilation, 1, 1) is already strictly dominated by a fully scored
// candidate is pruned — it can neither join the front nor win. Pruning depends on scheduling, but never
// changes the result: the front — the non-dominated set over the
// scored candidates, identical cost vectors represented by the lowest
// (earliest-tier) index — is deterministic, the scalarized winner is
// the front member with the lowest score (ties to the lowest index),
// and so is the JSON artifact (volatile counters are excluded).
//
// # Annealing refinement
//
// With Config.Anneal, the pair additionally gets a seeded,
// deterministic simulated-annealing pass (anneal.go), evaluated
// incrementally on netsim.LoadState so it scales to pairs of any size;
// seeds are drawn from the scored candidates (front members first). A
// refined placement is admitted only when it strictly dominates its
// seed, so annealing can only grow the front inward, never degrade it.
// Annealing also disables the congestion pruning gate: the pruned set
// depends on worker scheduling, and the seed selection must see a
// deterministic scored set.
//
// The baseline candidate (first strategy, identity permutations) is
// always fully scored and verified, and reported next to the winner, so
// callers can see the dilation/congestion trade the search made.
// Baseline scores that candidate alone, through the same code.
package place

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/netsim"
	"torusmesh/internal/par"
)

// EmbedFunc builds a base embedding for one pair — typically core.Embed
// or core.EmbedViaPrimes. It must be safe for concurrent calls.
type EmbedFunc func(g, h grid.Spec) (*embed.Embedding, error)

// Strategy is a named base construction the search composes symmetry
// variants around.
type Strategy struct {
	Name  string
	Embed EmbedFunc
	// Mid, when set with EmbedMidRot, exposes the construction's
	// intermediate stage for the pair (ok=false when it has none) and
	// enables the intermediate-rotation generator: EmbedMidRot rebuilds
	// the construction with a per-axis rotation of that intermediate
	// (core.PrimeIntermediate / core.EmbedViaPrimesMid for the prime
	// refinement). Both must be set together.
	Mid         func(g, h grid.Spec) (grid.Spec, bool)
	EmbedMidRot func(g, h grid.Spec, rot []int) (*embed.Embedding, error)
}

// Objective weighs the three placement costs. All weights must be
// non-negative and at least one positive; the zero value is replaced by
// DefaultObjective.
type Objective struct {
	// Alpha weighs the measured dilation (worst edge stretch).
	Alpha float64 `json:"alpha"`
	// Beta weighs the peak directed-link load (netsim congestion).
	Beta float64 `json:"beta"`
	// Gamma weighs the mean load of the links carrying any traffic.
	Gamma float64 `json:"gamma"`
}

// DefaultObjective weighs dilation and peak congestion equally and
// ignores mean link load.
func DefaultObjective() Objective { return Objective{Alpha: 1, Beta: 1} }

// Score evaluates the objective.
func (o Objective) Score(dilation, peak int, avgLink float64) float64 {
	return o.Alpha*float64(dilation) + o.Beta*float64(peak) + o.Gamma*avgLink
}

// ParseObjective parses the CLI weight form "α,β,γ", allowing "α,β"
// with γ = 0 — shared by the place and sweep commands.
func ParseObjective(s string) (Objective, error) {
	parts := strings.Split(s, ",")
	if len(parts) < 2 || len(parts) > 3 {
		return Objective{}, fmt.Errorf("objective must look like 1,1 or 1,2,0.5, got %q", s)
	}
	weights := make([]float64, 3)
	for i, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return Objective{}, fmt.Errorf("bad objective weight %q: %v", p, err)
		}
		weights[i] = w
	}
	return Objective{Alpha: weights[0], Beta: weights[1], Gamma: weights[2]}, nil
}

// DefaultBudget caps the number of candidates a search constructs when
// the config does not say otherwise.
const DefaultBudget = 128

// Config describes one placement search.
type Config struct {
	// Guest and Host must have the same size. They are the pair's
	// identity, recorded separately in the artifact, not a search
	// setting — so they are deliberately outside Spec().
	//torusmesh:nospec
	Guest, Host grid.Spec
	// Objective is the score being minimized; the zero value means
	// DefaultObjective.
	Objective Objective
	// Budget caps how many candidates are constructed and measured
	// (the deterministic enumeration is truncated after Budget entries;
	// the baseline is always first). <= 0 means DefaultBudget.
	Budget int
	// CapDilation discards every candidate whose measured dilation
	// exceeds the baseline's, so the winner trades congestion at equal
	// or better dilation (and the front spans only dilations up to the
	// baseline's).
	CapDilation bool
	// Rotations includes the digit-rotation generator (mesh sides
	// only; torus rotations are metric-invariant automorphisms).
	Rotations bool
	// Anneal adds the simulated-annealing refinement pass: scored
	// candidates (front members first) seed deterministic annealing
	// runs, evaluated incrementally so the pass scales to pairs of any
	// size, and refined placements that strictly dominate their seed
	// join the front.
	Anneal bool
	// AnnealSteps budgets each annealing run (<= 0 means
	// DefaultAnnealSteps).
	AnnealSteps int
	// AnnealMoves selects the move repertoire: DefaultAnnealMoves
	// ("swap", also the empty value) proposes node swaps only, with the
	// same RNG stream as the pre-incremental engine; AnnealMovesAll
	// ("all") mixes in host-axis segment reversals and axis-plane
	// swaps.
	AnnealMoves string
	// Seed seeds the deterministic annealing RNG (0 means
	// DefaultAnnealSeed). Two searches with equal configs — seed
	// included — produce identical artifacts.
	Seed int64
	// Clock substitutes the wall clock behind Result.Elapsed and the
	// per-run AnnealRuns timings. Nil means time.Now. Wall times
	// serialize as json:"-" and never enter artifacts, so the clock is
	// measurement-only and deliberately outside Spec().
	//torusmesh:nospec
	Clock func() time.Time
	// Strategies are the base constructions; Strategies[0] is the
	// baseline the search reports against. At least one is required.
	Strategies []Strategy
}

// ValidateSettings checks the settings that do not depend on the pair:
// the strategies, the objective weights and, when annealing, the move
// repertoire. Search applies the same checks, so a config that passes
// here fails a search only through its pair. Front ends call it at
// startup, before any pair is searched.
func (cfg Config) ValidateSettings() error {
	if len(cfg.Strategies) == 0 {
		return fmt.Errorf("place: at least one strategy is required")
	}
	for _, s := range cfg.Strategies {
		if s.Name == "" || s.Embed == nil {
			return fmt.Errorf("place: every strategy needs a name and an embed function")
		}
		if (s.Mid == nil) != (s.EmbedMidRot == nil) {
			return fmt.Errorf("place: strategy %s must set Mid and EmbedMidRot together", s.Name)
		}
	}
	if o := cfg.Objective; o.Alpha < 0 || o.Beta < 0 || o.Gamma < 0 {
		return fmt.Errorf("place: objective weights must be non-negative, got (%g, %g, %g)", o.Alpha, o.Beta, o.Gamma)
	}
	if cfg.Anneal {
		switch cfg.AnnealMoves {
		case "", DefaultAnnealMoves, AnnealMovesAll:
		default:
			return fmt.Errorf("place: anneal moves must be %q or %q, got %q",
				DefaultAnnealMoves, AnnealMovesAll, cfg.AnnealMoves)
		}
	}
	return nil
}

func (cfg *Config) validate() error {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if err := cfg.Guest.Shape.Validate(); err != nil {
		return fmt.Errorf("place: guest: %v", err)
	}
	if err := cfg.Host.Shape.Validate(); err != nil {
		return fmt.Errorf("place: host: %v", err)
	}
	if cfg.Guest.Size() != cfg.Host.Size() {
		return fmt.Errorf("place: guest %s has %d nodes but host %s has %d; sizes must match",
			cfg.Guest, cfg.Guest.Size(), cfg.Host, cfg.Host.Size())
	}
	if err := cfg.ValidateSettings(); err != nil {
		return err
	}
	if (cfg.Objective == Objective{}) {
		cfg.Objective = DefaultObjective()
	}
	if cfg.Budget <= 0 {
		cfg.Budget = DefaultBudget
	}
	if cfg.Anneal {
		if cfg.AnnealSteps <= 0 {
			cfg.AnnealSteps = DefaultAnnealSteps
		}
		if cfg.Seed == 0 {
			cfg.Seed = DefaultAnnealSeed
		}
		if cfg.AnnealMoves == "" {
			cfg.AnnealMoves = DefaultAnnealMoves
		}
	}
	return nil
}

// Spec renders everything that determines a pair's search result — the
// engine version, objective, budget, cap, generators, annealing knobs
// and strategy names — as one canonical string, with the zero-value
// defaults applied the way Search applies them. The census records it
// in its artifact so Merge refuses to combine shards searched under
// different settings, and resume refuses journals from a different
// engine (mixing either would silently break the bit-for-bit
// merge/resume invariant). The engine token tracks ArtifactVersion:
// the candidate space and winner selection changed with the Pareto
// engine, so pre-upgrade shard artifacts must not fold into
// post-upgrade searches even at identical settings. The annealing
// tokens appear only when annealing is on.
func (cfg Config) Spec() string {
	if (cfg.Objective == Objective{}) {
		cfg.Objective = DefaultObjective()
	}
	if cfg.Budget <= 0 {
		cfg.Budget = DefaultBudget
	}
	names := make([]string, len(cfg.Strategies))
	for i, s := range cfg.Strategies {
		names[i] = s.Name
	}
	spec := fmt.Sprintf("engine=%d objective=%g,%g,%g budget=%d cap=%t rotations=%t strategies=%s",
		ArtifactVersion, cfg.Objective.Alpha, cfg.Objective.Beta, cfg.Objective.Gamma,
		cfg.Budget, cfg.CapDilation, cfg.Rotations, strings.Join(names, "+"))
	if cfg.Anneal {
		steps := cfg.AnnealSteps
		if steps <= 0 {
			steps = DefaultAnnealSteps
		}
		seed := cfg.Seed
		if seed == 0 {
			seed = DefaultAnnealSeed
		}
		moves := cfg.AnnealMoves
		if moves == "" {
			moves = DefaultAnnealMoves
		}
		spec += fmt.Sprintf(" anneal=%d seed=%d moves=%s", steps, seed, moves)
	}
	return spec
}

// Candidate is one fully scored placement candidate: the symmetry
// variant that produced it and its measured costs.
type Candidate struct {
	// Index is the candidate's position in the deterministic
	// enumeration (0 is the baseline); annealed candidates extend the
	// enumeration past the last constructed variant. It breaks score
	// ties.
	Index int `json:"index"`
	// Strategy is the name of the base construction strategy ("anneal"
	// for annealed candidates).
	Strategy string `json:"strategy"`
	// GuestPerm/HostPerm are the axis permutations applied around the
	// base construction (absent = identity).
	GuestPerm []int `json:"guest_perm,omitempty"`
	HostPerm  []int `json:"host_perm,omitempty"`
	// GuestRot/HostRot are the per-axis coordinate rotations (absent =
	// none).
	GuestRot []int `json:"guest_rot,omitempty"`
	HostRot  []int `json:"host_rot,omitempty"`
	// MidRot is the per-axis rotation of the strategy's intermediate
	// stage (absent = none).
	MidRot []int `json:"mid_rot,omitempty"`
	// Annealed marks a candidate produced by the annealing refinement
	// pass; AnnealedFrom is the index of the front member it refined.
	Annealed     bool `json:"annealed,omitempty"`
	AnnealedFrom int  `json:"annealed_from,omitempty"`
	// EmbedStrategy names the construction chain of the composite
	// embedding.
	EmbedStrategy string `json:"embed_strategy"`
	Costs
}

// Costs is the measured cost vector of one placement and its objective
// score. Pareto dominance reads (Dilation, Peak, AvgLink).
type Costs struct {
	// Dilation and AvgDilation are measured over every guest edge.
	Dilation    int     `json:"dilation"`
	AvgDilation float64 `json:"avg_dilation"`
	// Peak and AvgLink are the congestion costs under dimension-ordered
	// routing.
	Peak    int     `json:"peak"`
	AvgLink float64 `json:"avg_link"`
	// Score is the objective value.
	Score float64 `json:"score"`
}

// dominates reports whether c Pareto-dominates o on (dilation, peak,
// avg-link): no coordinate worse, at least one strictly better. Front
// membership and annealing admission both use this one rule.
func (c Costs) dominates(o Costs) bool {
	if c.Dilation > o.Dilation || c.Peak > o.Peak || c.AvgLink > o.AvgLink {
		return false
	}
	return c.Dilation < o.Dilation || c.Peak < o.Peak || c.AvgLink < o.AvgLink
}

// same reports whether c and o are equal on (dilation, peak, avg-link).
func (c Costs) same(o Costs) bool {
	return c.Dilation == o.Dilation && c.Peak == o.Peak && c.AvgLink == o.AvgLink
}

// Desc renders the symmetry variant compactly, e.g.
// "paper hperm=[1 0] grot=[0 2]".
func (c Candidate) Desc() string {
	s := c.Strategy
	if len(c.GuestPerm) > 0 {
		s += fmt.Sprintf(" gperm=%v", c.GuestPerm)
	}
	if len(c.HostPerm) > 0 {
		s += fmt.Sprintf(" hperm=%v", c.HostPerm)
	}
	if len(c.GuestRot) > 0 {
		s += fmt.Sprintf(" grot=%v", c.GuestRot)
	}
	if len(c.HostRot) > 0 {
		s += fmt.Sprintf(" hrot=%v", c.HostRot)
	}
	if len(c.MidRot) > 0 {
		s += fmt.Sprintf(" midrot=%v", c.MidRot)
	}
	if c.Annealed {
		s += fmt.Sprintf(" from=%d", c.AnnealedFrom)
	}
	return s
}

// paretoFront filters the scored candidates to their non-dominated
// subset. Identical cost vectors are represented by the lowest index,
// and the result is sorted by (dilation, peak, avg-link, index) — the
// deterministic artifact order. The input is not modified.
func paretoFront(scored []Candidate) []Candidate {
	var front []Candidate
	for _, c := range scored {
		keep := true
		for _, o := range scored {
			if o.Index == c.Index {
				continue
			}
			if o.dominates(c.Costs) || (o.same(c.Costs) && o.Index < c.Index) {
				keep = false
				break
			}
		}
		if keep {
			front = append(front, c)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		a, b := front[i], front[j]
		if a.Dilation != b.Dilation {
			return a.Dilation < b.Dilation
		}
		if a.Peak != b.Peak {
			return a.Peak < b.Peak
		}
		if a.AvgLink != b.AvgLink {
			return a.AvgLink < b.AvgLink
		}
		return a.Index < b.Index
	})
	return front
}

// bestOf returns the front member minimizing the objective, ties to the
// lowest index. Weak dominance implies a score no worse under
// non-negative weights, so the front's minimum equals the minimum over
// every scored candidate — deriving the winner from the front loses
// nothing.
func bestOf(front []Candidate) Candidate {
	best := front[0]
	for _, c := range front[1:] {
		if c.Score < best.Score || (c.Score == best.Score && c.Index < best.Index) {
			best = c
		}
	}
	return best
}

// Result is the (serializable) outcome of one search. Every serialized
// field is deterministic for a given Config; fields that depend on
// scheduling or wall time are excluded from the artifact.
type Result struct {
	Version   int       `json:"version"`
	Guest     string    `json:"guest"`
	Host      string    `json:"host"`
	Objective Objective `json:"objective"`
	Budget    int       `json:"budget"`
	// CapDilation is the effective dilation cap (0 = none; otherwise
	// the baseline's measured dilation).
	CapDilation int `json:"cap_dilation"`
	// Space is the size of the full candidate space; Candidates is the
	// number enumerated within the budget.
	Space      int `json:"space"`
	Candidates int `json:"candidates"`
	// Unbuildable counts candidates whose base construction failed;
	// Invalid counts candidates whose construction produced a broken
	// (out-of-range or non-injective) embedding; Capped counts
	// candidates discarded by the dilation cap. All are deterministic.
	Unbuildable int `json:"unbuildable"`
	Invalid     int `json:"invalid"`
	Capped      int `json:"capped"`
	// Annealed counts the annealing refinement runs; AnnealWins counts
	// the annealed members of the final front — refined placements that
	// strictly dominated their seed and survived the front's dedup.
	// AnnealSeedsSkipped counts the eligible seeds the per-search seed
	// cap dropped, so wide searches can see the pass was truncated.
	// All are zero without Config.Anneal and deterministic with it.
	Annealed           int `json:"annealed,omitempty"`
	AnnealWins         int `json:"anneal_wins,omitempty"`
	AnnealSeedsSkipped int `json:"anneal_seeds_skipped,omitempty"`
	// Seed is the effective annealing seed (0 without annealing).
	Seed int64 `json:"seed,omitempty"`
	// Baseline is the paper pick (first strategy, identity symmetries),
	// always fully scored; Best is the objective winner, always a
	// member of Front.
	Baseline Candidate `json:"baseline"`
	Best     Candidate `json:"best"`
	// Front is the Pareto front: every scored candidate not dominated
	// by another on (dilation, peak, avg-link), sorted by those costs.
	// It always holds at least one member (the winner), and is
	// independent of scheduling and GOMAXPROCS.
	Front []Candidate `json:"front"`

	// Pruned counts candidates whose congestion scoring was skipped
	// because their best conceivable cost vector was already dominated.
	// It depends on worker scheduling and is excluded from the
	// artifact, like Elapsed.
	Pruned  int           `json:"-"`
	Elapsed time.Duration `json:"-"`
	// AnnealRuns reports per-run annealing telemetry in seed order —
	// what the CLI's steps/sec line is computed from. Run wall times
	// depend on scheduling, so the field is excluded from the artifact.
	AnnealRuns []AnnealRunStat `json:"-"`
	// BestEmbedding is the verified winning embedding, for callers
	// that want to use the placement rather than just read its costs.
	BestEmbedding *embed.Embedding `json:"-"`
}

// AnnealRunStat is one annealing run's telemetry: the index of the
// scored candidate it refined, its move budget, and its wall time
// (scheduling-dependent; never serialized).
type AnnealRunStat struct {
	SeedIndex int
	Steps     int
	Elapsed   time.Duration
}

// Improved reports whether the search found a candidate with a strictly
// better objective score than the paper baseline.
func (r *Result) Improved() bool { return r.Best.Score < r.Baseline.Score }

// builder is the construction half of a search: the config and the
// caches its variants' embeddings are built through. BaselineEmbedding
// builds through one too, so the baseline it returns is the embedding a
// search scores as its Baseline.
type builder struct {
	cfg *Config

	// bases caches the construction half of variants (buildBase) per
	// baseKey; posts caches the host-side relabeling tables per
	// (hperm, hrot). Both are filled lazily under concurrent access.
	baseMu sync.Mutex
	bases  map[string]*baseEntry
	postMu sync.Mutex
	posts  map[string]*postEntry
}

func newBuilder(cfg *Config) *builder {
	return &builder{cfg: cfg, bases: map[string]*baseEntry{}, posts: map[string]*postEntry{}}
}

// searcher carries the immutable per-search state the candidate workers
// share, beside the construction caches.
type searcher struct {
	*builder
	guest *netsim.Guest       // the guest; its edge list is built when a pass routes it
	nw    *netsim.Network     // the host machine
	rd    *grid.RankDistancer // compiled host distance
	cap   int                 // dilation cap (0 = none)
}

// baseEntry is one lazily built shared base construction.
type baseEntry struct {
	once sync.Once
	e    *embed.Embedding
	err  error
}

// postEntry is one lazily built host-side relabeling.
type postEntry struct {
	once sync.Once
	e    *embed.Embedding
	err  error
}

func newSearcher(cfg *Config) *searcher {
	return &searcher{
		builder: newBuilder(cfg),
		guest:   netsim.NewGuest(cfg.Guest),
		nw:      netsim.New(cfg.Host),
		rd:      cfg.Host.NewRankDistancer(),
	}
}

// build constructs a variant's composite embedding through the caches:
// the base construction is built at most once per baseKey, and
// host-side symmetries are post-composed onto it — one digit kernel
// when the base is disjoint, else one fusion of the base's cached
// table. A digit-kernel candidate has no table yet: Verify and
// EdgeDilation try the closed forms first, so it gets one only when it
// is scored. Produces embeddings rank-identical to buildVariant.
func (b *builder) build(v variantSpec) (*embed.Embedding, error) {
	hp := permutedHost(b.cfg.Host, v.hperm)
	key := v.baseKey(hp)
	b.baseMu.Lock()
	be := b.bases[key]
	if be == nil {
		be = &baseEntry{}
		b.bases[key] = be
	}
	b.baseMu.Unlock()
	be.once.Do(func() { be.e, be.err = buildBase(b.cfg, v, hp) })
	if be.err != nil {
		return nil, be.err
	}
	if v.hperm == nil && v.hrot == nil {
		return be.e, nil
	}
	post, err := b.post(v)
	if err != nil {
		return nil, err
	}
	return embed.PostCompose(be.e, post, be.e.Strategy+" ∘ "+post.Strategy, 0)
}

// post returns the cached host-side relabeling of a variant.
func (b *builder) post(v variantSpec) (*embed.Embedding, error) {
	key := fmt.Sprintf("%v|%v", v.hperm, v.hrot)
	b.postMu.Lock()
	pe := b.posts[key]
	if pe == nil {
		pe = &postEntry{}
		b.posts[key] = pe
	}
	b.postMu.Unlock()
	pe.once.Do(func() { pe.e, pe.err = postParts(b.cfg, v) })
	return pe.e, pe.err
}

// baselineEmbedding builds the baseline candidate's embedding: the
// first strategy at identity symmetries, enumeration index 0.
func (b *builder) baselineEmbedding() (*embed.Embedding, error) {
	e, err := b.build(variantSpec{})
	if err != nil {
		return nil, fmt.Errorf("place: baseline strategy %s failed for %s -> %s: %v",
			b.cfg.Strategies[0].Name, b.cfg.Guest, b.cfg.Host, err)
	}
	return e, nil
}

// congest measures the congestion of the guest's edges under the
// embedding's placement — the expensive half of scoring, unless the
// embedding is a proved bijection and netsim answers in closed form.
func (s *searcher) congest(e *embed.Embedding) (netsim.CongestionStats, error) {
	stats, _, err := netsim.EmbeddingCongestion(s.nw, s.guest, e)
	return stats, err
}

// score finishes evaluating one candidate from its already-measured
// dilation costs: the congestion pass and the objective. Both the
// baseline and the worker loop go through here, so every candidate is
// scored on the same objective.
func (s *searcher) score(idx int, v variantSpec, e *embed.Embedding, dil int, avg float64) (Candidate, error) {
	stats, err := s.congest(e)
	if err != nil {
		return Candidate{}, err
	}
	c := v.describe(idx, s.cfg)
	c.EmbedStrategy = e.Strategy
	c.Costs = s.costs(dil, avg, stats)
	return c, nil
}

// costs assembles a cost vector from its dilation and congestion
// measurements and scores it on the objective — the one constructor of
// Costs, shared by candidate scoring and both annealing measurements.
func (s *searcher) costs(dil int, avg float64, stats netsim.CongestionStats) Costs {
	c := Costs{Dilation: dil, AvgDilation: avg, Peak: stats.MaxLink, AvgLink: stats.AvgLink()}
	c.Score = s.cfg.Objective.Score(c.Dilation, c.Peak, c.AvgLink)
	return c
}

// baseline builds, verifies and scores the baseline candidate. Search
// and Baseline both take it from here.
func (s *searcher) baseline() (Candidate, *embed.Embedding, error) {
	e, err := s.baselineEmbedding()
	if err != nil {
		return Candidate{}, nil, err
	}
	if err := e.Verify(); err != nil {
		return Candidate{}, nil, fmt.Errorf("place: baseline embedding is broken: %v", err)
	}
	dil, avg := e.EdgeDilation(s.rd)
	c, err := s.score(0, variantSpec{}, e, dil, avg)
	if err != nil {
		return Candidate{}, nil, fmt.Errorf("place: baseline scoring failed: %v", err)
	}
	return c, e, nil
}

// Baseline scores the config's baseline candidate alone — the Baseline
// a Search of the same config reports, without enumerating or scoring
// the rest of the candidate space, and without the division-free host
// decode a search precomputes for its many candidates. It is the
// instant tier of the placement service.
func Baseline(cfg Config) (Candidate, error) {
	if err := cfg.validate(); err != nil {
		return Candidate{}, err
	}
	c, _, err := newSearcher(&cfg).baseline()
	return c, err
}

// BaselineEmbedding builds the embedding Baseline scores, without
// measuring it: the placement behind the service's instant tier.
func BaselineEmbedding(cfg Config) (*embed.Embedding, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return newBuilder(&cfg).baselineEmbedding()
}

// unitFloor tracks the lowest dilation among fully scored candidates
// that hit the congestion floor (peak 1, avg-link <= 1). A candidate
// whose dilation strictly exceeds that floor is Pareto-dominated by it
// — every reachable vector (d, >=1, >=1) loses on dilation and cannot
// improve on peak or avg-link — so its congestion pass is skipped.
// Pruning is strict on dilation, which keeps the front independent of
// scheduling: the floor candidate itself can never be pruned, so a
// candidate pruned under one schedule is dominated under every
// schedule.
type unitFloor struct {
	mu  sync.Mutex
	dil int
	ok  bool
}

func (u *unitFloor) observe(c Candidate) {
	if c.Peak != 1 || c.AvgLink > 1 {
		return
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if !u.ok || c.Dilation < u.dil {
		u.dil, u.ok = c.Dilation, true
	}
}

func (u *unitFloor) prunes(dil int) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.ok && u.dil < dil
}

// Search enumerates the candidate space of the config's pair, scores
// candidates concurrently with Pareto-safe pruning, optionally refines
// the front by simulated annealing, and returns the deterministic
// Pareto front with the scalarized winner next to the paper baseline.
// It fails when the pair is invalid or the baseline strategy cannot
// embed it.
func Search(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := cfg.Clock()
	variants, space := enumerate(&cfg)
	s := newSearcher(&cfg)
	// Materialized (division-free) decode pays off across the table
	// passes of many candidates, which kernels take when the guest is at
	// or below the materialization threshold; above it no candidate has
	// a table and the precompute would be dead weight (same gate as the
	// census engine).
	if cfg.Guest.Size() <= embed.MaterializeThreshold() {
		s.rd.Materialize()
	}
	baseline, base, err := s.baseline()
	if err != nil {
		return nil, err
	}
	if cfg.CapDilation {
		s.cap = baseline.Dilation
	}

	floor := &unitFloor{}
	floor.observe(baseline)
	scored := make([]Candidate, 1, len(variants))
	scored[0] = baseline
	var mu sync.Mutex
	unbuildable, invalid, capped, pruned := 0, 0, 0, 0
	var firstErr error
	par.Blocks(len(variants)-1, 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			idx := k + 1
			v := variants[idx]
			e, err := s.build(v)
			if err != nil {
				mu.Lock()
				unbuildable++
				mu.Unlock()
				continue
			}
			// A broken candidate is discarded, not fatal: only the
			// baseline is load-bearing.
			if err := e.Verify(); err != nil {
				mu.Lock()
				invalid++
				mu.Unlock()
				continue
			}
			dil, avg := e.EdgeDilation(s.rd)
			if s.cap > 0 && dil > s.cap {
				mu.Lock()
				capped++
				mu.Unlock()
				continue
			}
			// A candidate whose best conceivable vector (dil, 1, 1) is
			// already strictly dominated can neither join the front nor
			// win; skip the routing pass. With annealing on, every
			// candidate is scored instead: the pruned set depends on
			// worker scheduling, and annealing's seed selection draws
			// from the whole scored set, which must be deterministic.
			if !cfg.Anneal && floor.prunes(dil) {
				mu.Lock()
				pruned++
				mu.Unlock()
				continue
			}
			c, err := s.score(idx, v, e, dil, avg)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("place: candidate %d: %v", idx, err)
				}
				mu.Unlock()
				continue
			}
			floor.observe(c)
			mu.Lock()
			scored = append(scored, c)
			mu.Unlock()
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	// The front is computed over an index-sorted copy so it (and every
	// tie-break inside it) is independent of completion order.
	sort.Slice(scored, func(i, j int) bool { return scored[i].Index < scored[j].Index })
	front := paretoFront(scored)

	res := &Result{
		Version:     ArtifactVersion,
		Guest:       cfg.Guest.String(),
		Host:        cfg.Host.String(),
		Objective:   cfg.Objective,
		Budget:      cfg.Budget,
		CapDilation: s.cap,
		Space:       space,
		Candidates:  len(variants),
		Unbuildable: unbuildable,
		Invalid:     invalid,
		Capped:      capped,
		Baseline:    baseline,
		Pruned:      pruned,
	}

	annealTables := map[int]embed.Table{}
	if cfg.Anneal {
		res.Seed = cfg.Seed
		front, err = s.annealFront(variants, scored, front, res, annealTables)
		if err != nil {
			return nil, err
		}
	}
	res.Front = front
	res.Best = bestOf(front)

	best := base
	if res.Best.Index != 0 {
		if t, ok := annealTables[res.Best.Index]; ok {
			best, err = embed.FromTable(cfg.Guest, cfg.Host, res.Best.EmbedStrategy, 0, t)
		} else {
			best, err = s.build(variants[res.Best.Index])
		}
		if err != nil {
			return nil, fmt.Errorf("place: rebuilding winner %d: %v", res.Best.Index, err)
		}
		if err := best.Verify(); err != nil {
			return nil, fmt.Errorf("place: winning embedding is broken: %v", err)
		}
	}
	res.BestEmbedding = best
	res.Elapsed = cfg.Clock().Sub(start)
	return res, nil
}
