package torusmesh

import "torusmesh/internal/place"

// PlacementObjective weighs the three placement costs the search
// minimizes: α·dilation + β·peakLinkLoad + γ·meanUsedLinkLoad.
type PlacementObjective = place.Objective

// PlacementCandidate is one fully scored placement candidate: the
// symmetry variant that produced it and its measured costs.
type PlacementCandidate = place.Candidate

// PlacementResult is the outcome of a placement search: the best
// candidate found next to the paper baseline, the effective search
// parameters, and the verified winning embedding (BestEmbedding).
type PlacementResult = place.Result

// PlacementOptions tunes PlaceWith. The zero value of Objective and
// Budget means their defaults; DefaultPlacementOptions is the
// configuration Place uses.
type PlacementOptions struct {
	// Objective is the score being minimized (zero value: dilation and
	// peak congestion weighted equally).
	Objective PlacementObjective
	// Budget caps how many candidates are constructed and measured
	// (<= 0: a default of place.DefaultBudget).
	Budget int
	// CapDilation discards candidates dilating worse than the paper
	// baseline, so the winner trades congestion at equal or better
	// dilation.
	CapDilation bool
	// Rotations includes digit-rotation candidates (mesh sides only;
	// torus rotations are metric-invariant automorphisms).
	Rotations bool
	// Anneal refines the Pareto front by a seeded, deterministic
	// simulated-annealing pass, evaluated incrementally so it scales to
	// pairs of any size; a refined placement joins the front only when
	// it strictly dominates its seed.
	Anneal bool
	// AnnealSteps budgets each annealing run (<= 0: a fixed default).
	AnnealSteps int
	// AnnealMoves selects the annealing move repertoire: "" or "swap"
	// for node swaps only, "all" to mix in host-axis segment reversals
	// and axis-plane swaps.
	AnnealMoves string
	// Seed seeds the annealing RNG (0: a fixed default). Equal options
	// — seed included — produce identical results.
	Seed int64
}

// DefaultPlacementOptions caps dilation at the baseline's and enables
// every candidate generator.
func DefaultPlacementOptions() PlacementOptions {
	return PlacementOptions{CapDilation: true, Rotations: true}
}

// Place searches for a congestion-aware placement of g on h: candidate
// embeddings (the paper's construction and the all-primes refinement —
// including rotations of its intermediate stage — composed with axis
// permutations and digit rotations) are scored on dilation and netsim
// link congestion. The result carries the full Pareto front over
// (dilation, peak, avg-link) in Result.Front, with the objective's
// winner — always a front member — returned next to the paper
// baseline. The winner never dilates worse than the baseline
// (DefaultPlacementOptions caps dilation); use PlaceWith to trade
// differently or to enable the annealing refinement.
func Place(g, h Spec) (*PlacementResult, error) {
	return PlaceWith(g, h, DefaultPlacementOptions())
}

// PlaceWith is Place with explicit objective, budget, generator and
// annealing options.
func PlaceWith(g, h Spec, opts PlacementOptions) (*PlacementResult, error) {
	return place.Search(place.Config{
		Guest:       g,
		Host:        h,
		Objective:   opts.Objective,
		Budget:      opts.Budget,
		CapDilation: opts.CapDilation,
		Rotations:   opts.Rotations,
		Anneal:      opts.Anneal,
		AnnealSteps: opts.AnnealSteps,
		AnnealMoves: opts.AnnealMoves,
		Seed:        opts.Seed,
		Strategies:  place.DefaultStrategies(),
	})
}
