// Package-level instrumentation of the search engine, on the process
// default registry (the engine is a library: callers that want scoped
// counters run it in their own process, as the CLIs do). Every
// increment on the annealing path is a single lock-free atomic add —
// no locks, no allocation — so instrumented runs stay bit-identical
// in output and indistinguishable in profile from uninstrumented ones;
// the allocs gate and the obs-overhead benchmark both pin that.
package place

import "torusmesh/internal/obs"

var (
	annealRuns          = obs.Default().Counter("place_anneal_runs_total")
	annealSteps         = obs.Default().Counter("place_anneal_steps_total")
	annealAccepted      = obs.Default().Counter("place_anneal_moves_accepted_total")
	annealRejected      = obs.Default().Counter("place_anneal_moves_rejected_total")
	annealBounded       = obs.Default().Counter("place_anneal_moves_bounded_total")
	annealRevalidations = obs.Default().Counter("place_anneal_revalidations_total")
)

func init() {
	obs.Default().Describe("place_anneal_runs_total", "Annealing runs started.")
	obs.Default().Describe("place_anneal_steps_total", "Annealing steps proposed across all runs.")
	obs.Default().Describe("place_anneal_moves_accepted_total", "Annealing moves accepted (downhill or Metropolis).")
	obs.Default().Describe("place_anneal_moves_rejected_total", "Annealing moves rejected, bounded ones included.")
	obs.Default().Describe("place_anneal_moves_bounded_total", "Annealing moves rejected by the dilation bound before routing.")
	obs.Default().Describe("place_anneal_revalidations_total", "Incremental-cost re-validations against a full measurement.")
}
