// Command place is the CLI of the congestion-aware placement engine:
// for one (guest, host) pair it searches over candidate embeddings —
// base strategies composed with axis permutations, digit rotations and
// rotations of the prime refinement's intermediate stage — and reports
// the Pareto front over (dilation, peak congestion, avg link load)
// together with the candidate minimizing the objective
//
//	score = α·dilation + β·peakCongestion + γ·avgLinkLoad
//
// next to the paper baseline, optionally writing a versioned JSON
// artifact whose bytes are deterministic for a given invocation
// (independent of scheduling and GOMAXPROCS).
//
// Usage:
//
//	place -from torus:8x2 -to mesh:4x4
//	place -from torus:12x3 -to torus:9x4 -pareto            # render the front
//	place -from torus:12x3 -to torus:9x4 -objective 1,2,0.5 -budget 256
//	place -from mesh:6x4 -to mesh:8x3 -json best.json
//	place -from torus:8x2 -to mesh:4x4 -cap=false   # allow dilation above baseline
//	place -from ring:16 -to torus:4x4 -anneal -seed 7       # annealing refinement
//
// The -objective flag takes the three comma-separated weights α,β,γ.
// With -cap (the default) candidates whose measured dilation exceeds
// the baseline's are discarded, so the winner trades congestion at
// equal or better dilation. -pareto prints the full non-dominated set
// (it is always part of the JSON artifact). -anneal adds a seeded,
// deterministic simulated-annealing refinement, evaluated
// incrementally so it scales to pairs of any size; -seed picks the RNG
// seed (same seed, same artifact), -anneal-steps the per-run move
// budget, and -anneal-moves the repertoire ("swap" for node swaps
// only, "all" to mix in segment reversals and axis-plane swaps).
// Annealing runs execute concurrently (one per seed) with results
// admitted in seed order, so the artifact is still scheduling-
// independent. With -time, each run's wall time and steps/sec are
// reported.
//
// Exit codes: 0 = success; 1 = internal inconsistency (the search
// returned a winner worse than its own baseline — a library bug);
// 2 = usage or validation errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"torusmesh/internal/grid"
	"torusmesh/internal/par"
	"torusmesh/internal/place"
)

const (
	exitInconsistent = 1
	exitUsage        = 2
)

func main() {
	guest := flag.String("from", "", "guest spec, e.g. torus:8x2 or ring:24")
	host := flag.String("to", "", "host spec, e.g. mesh:4x4")
	objective := flag.String("objective", "1,1,0", "objective weights α,β,γ for dilation, peak link load, mean link load")
	budget := flag.Int("budget", place.DefaultBudget, "max candidates constructed and scored")
	cap := flag.Bool("cap", true, "discard candidates dilating worse than the baseline")
	rotations := flag.Bool("rotations", true, "include digit-rotation candidates (mesh sides)")
	pareto := flag.Bool("pareto", false, "render the full Pareto front, not just baseline and winner")
	anneal := flag.Bool("anneal", false, "refine the front by seeded simulated annealing")
	annealSteps := flag.Int("anneal-steps", 0, "move budget per annealing run (0 = default)")
	annealMoves := flag.String("anneal-moves", "", "annealing move repertoire: swap (default) or all")
	seed := flag.Int64("seed", 0, "annealing RNG seed (0 = default); same seed, same artifact")
	jsonOut := flag.String("json", "", "write the search artifact to this file")
	timing := flag.Bool("time", false, "report the wall time of the search")
	flag.Parse()

	if *guest == "" || *host == "" {
		fatalf("place: both -from and -to are required")
	}
	if !*anneal && (*annealSteps != 0 || *seed != 0 || *annealMoves != "") {
		// Silently ignoring these would let a user believe the seed
		// shaped the result.
		fatalf("place: -seed, -anneal-steps and -anneal-moves require -anneal")
	}
	g, err := grid.ParseSpec(*guest)
	if err != nil {
		fatalf("place: %v", err)
	}
	h, err := grid.ParseSpec(*host)
	if err != nil {
		fatalf("place: %v", err)
	}
	obj, err := place.ParseObjective(*objective)
	if err != nil {
		fatalf("place: %v", err)
	}

	res, err := place.Search(place.Config{
		Guest:       g,
		Host:        h,
		Objective:   obj,
		Budget:      *budget,
		CapDilation: *cap,
		Rotations:   *rotations,
		Anneal:      *anneal,
		AnnealSteps: *annealSteps,
		AnnealMoves: *annealMoves,
		Seed:        *seed,
		Strategies:  place.DefaultStrategies(),
	})
	if err != nil {
		fatalf("%v", err) // Search errors already carry the place: prefix
	}

	report(res, *pareto)
	if *timing {
		fmt.Printf("searched in %s across %d worker(s), %d congestion scoring(s) pruned\n",
			res.Elapsed, par.Workers(), res.Pruned)
		for _, run := range res.AnnealRuns {
			line := fmt.Sprintf("anneal run from #%d: %d steps in %s", run.SeedIndex, run.Steps, run.Elapsed)
			if run.Elapsed > 0 {
				line += fmt.Sprintf(" (%.0f steps/sec)", float64(run.Steps)/run.Elapsed.Seconds())
			}
			fmt.Println(line)
		}
	}
	if *jsonOut != "" {
		if err := res.WriteFile(*jsonOut); err != nil {
			fatalf("place: %v", err)
		}
	}
	// The baseline is always a scored candidate, so the winner can
	// never be worse; a violation is a search bug, reported distinctly
	// from usage errors (and relied on by the CI smoke).
	if res.Best.Score > res.Baseline.Score {
		fmt.Fprintf(os.Stderr, "place: INTERNAL ERROR: best score %g worse than baseline %g\n",
			res.Best.Score, res.Baseline.Score)
		os.Exit(exitInconsistent)
	}
}

func report(res *place.Result, pareto bool) {
	fmt.Printf("place %s -> %s: minimize %g·dilation + %g·peak + %g·avg-link\n",
		res.Guest, res.Host, res.Objective.Alpha, res.Objective.Beta, res.Objective.Gamma)
	fmt.Printf("space %d candidates, %d within budget, %d unbuildable, %d invalid, %d capped",
		res.Space, res.Candidates, res.Unbuildable, res.Invalid, res.Capped)
	if res.CapDilation > 0 {
		fmt.Printf(" (dilation cap %d)", res.CapDilation)
	}
	if res.Annealed > 0 {
		fmt.Printf(", %d annealing run(s), %d win(s)", res.Annealed, res.AnnealWins)
		if res.AnnealSeedsSkipped > 0 {
			fmt.Printf(", %d seed(s) beyond the cap", res.AnnealSeedsSkipped)
		}
	}
	fmt.Println()
	line := func(label string, c place.Candidate) {
		fmt.Printf("%s %-28s dilation %d  avg %.3f  peak %d  avg-link %.3f  score %g\n",
			label, c.Desc(), c.Dilation, c.AvgDilation, c.Peak, c.AvgLink, c.Score)
		fmt.Printf("          via %s\n", c.EmbedStrategy)
	}
	line("baseline:", res.Baseline)
	line("best:    ", res.Best)
	if pareto {
		fmt.Printf("pareto front (%d non-dominated placement(s), dilation vs congestion):\n", len(res.Front))
		for _, c := range res.Front {
			marker := " "
			if c.Index == res.Best.Index {
				marker = "*"
			}
			fmt.Printf(" %s d=%d peak=%d avg-link=%.3f score=%-6g %s\n",
				marker, c.Dilation, c.Peak, c.AvgLink, c.Score, c.Desc())
		}
	}
	if res.Improved() {
		fmt.Printf("improved: peak %d -> %d, dilation %d -> %d, score %g -> %g\n",
			res.Baseline.Peak, res.Best.Peak,
			res.Baseline.Dilation, res.Best.Dilation,
			res.Baseline.Score, res.Best.Score)
	} else {
		fmt.Println("the paper baseline is already optimal within the searched space")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(exitUsage)
}
