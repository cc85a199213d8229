package place

import (
	"flag"
	"fmt"
)

// BindFlags registers the search flags on fs — -objective, -budget,
// -cap, -rotations, -anneal, -anneal-steps, -anneal-moves and -seed —
// so the commands that search pairs share one set of names, defaults
// and help text. The returned function, called once fs is parsed,
// builds the Config the flags describe, with DefaultStrategies and no
// pair. It fails on an unparsable -objective and on annealing knobs
// set without -anneal; the remaining settings are ValidateSettings'.
func BindFlags(fs *flag.FlagSet) func() (Config, error) {
	objective := fs.String("objective", "1,1,0", "objective weights α,β,γ for dilation, peak link load, mean link load")
	budget := fs.Int("budget", DefaultBudget, "max candidates constructed and scored")
	capDilation := fs.Bool("cap", true, "discard candidates dilating worse than the baseline")
	rotations := fs.Bool("rotations", true, "include digit-rotation candidates (mesh sides)")
	anneal := fs.Bool("anneal", false, "refine the front by seeded simulated annealing")
	annealSteps := fs.Int("anneal-steps", 0, "move budget per annealing run (0 = default)")
	annealMoves := fs.String("anneal-moves", "", "annealing move repertoire: swap (default) or all")
	seed := fs.Int64("seed", 0, "annealing RNG seed (0 = default); same seed, same artifact")
	return func() (Config, error) {
		if !*anneal && (*annealSteps != 0 || *seed != 0 || *annealMoves != "") {
			// Silently ignoring these would let a user believe the seed
			// shaped the result.
			return Config{}, fmt.Errorf("-seed, -anneal-steps and -anneal-moves require -anneal")
		}
		obj, err := ParseObjective(*objective)
		if err != nil {
			return Config{}, err
		}
		return Config{
			Objective:   obj,
			Budget:      *budget,
			CapDilation: *capDilation,
			Rotations:   *rotations,
			Anneal:      *anneal,
			AnnealSteps: *annealSteps,
			AnnealMoves: *annealMoves,
			Seed:        *seed,
			Strategies:  DefaultStrategies(),
		}, nil
	}
}
