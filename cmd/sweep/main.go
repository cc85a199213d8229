// Command sweep is the CLI of the coverage census engine: for a given
// size it attempts to embed every ordered pair of canonical torus/mesh
// shapes of that size (in both kind combinations), verifies each
// result, measures dilation costs, and tallies which construction
// carried each pair. The pair space shards deterministically across
// processes, censuses serialize to versioned JSON artifacts, and
// -merge recombines shard artifacts into the census an unsharded run
// would have produced, bit for bit.
//
// Usage:
//
//	sweep -n 24
//	sweep -n 360 -maxdim 4 -congestion
//	sweep -n 60 -congestion -place -place-budget 32
//	sweep -n 360 -shard 2/8 -json s2.json
//	sweep -merge -json full.json s0.json s1.json ... s7.json
//	sweep -merge -json full.json 'shards/*.json'   # or just: shards/
//	sweep -n 360 -shard 2/8 -worker > s2.ndjson    # NDJSON stream mode
//
// -merge arguments may be files, globs, or directories (a directory
// means every *.json and *.ndjson inside it); both the JSON document
// and the NDJSON stream artifact forms are accepted.
//
// -worker turns the process into a shard worker for the distributed
// driver (cmd/sweepd): instead of a human report, the shard census
// streams to stdout as NDJSON — a versioned header line, then one
// result per line, each flushed as soon as its pair finishes, so a
// killed worker leaves a usable prefix. With -resume the worker scans
// a partial stream artifact first and skips pairs already present.
//
// Census artifacts from -place sweeps double as warm input for the
// placement service: `placed -warm 'census-*.json'` (or POST /warm)
// pre-seeds its cache from every pair a census already searched.
//
// Exit codes: 0 = success; 1 = verification failures (a construction
// broke injectivity or its dilation guarantee — a library bug; not
// used in -worker mode, where failures travel inside the records); 2 =
// usage, configuration or artifact-validation errors (bad flags,
// unreadable or incompatible shard artifacts, missing or duplicated
// shards in a -merge).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"torusmesh/internal/catalog"
	"torusmesh/internal/census"
	"torusmesh/internal/core"
	"torusmesh/internal/embed"
	"torusmesh/internal/par"
	"torusmesh/internal/place"
)

// Exit codes, kept distinct so sweep drivers can tell "the library is
// broken" (retrying will not help) from "this invocation or these
// artifacts are invalid" (fix the inputs and retry).
const (
	exitVerifyFailures = 1
	exitUsage          = 2
	// exitWorkerAbort is the -worker-abort testing hook's exit code: a
	// deliberately crashed worker, distinct from usage errors so the
	// driver smoke can tell the injected failure from a broken setup.
	exitWorkerAbort = 3
)

func main() {
	n := flag.Int("n", 24, "graph size (number of nodes)")
	maxDim := flag.Int("maxdim", 0, "cap on shape dimension (0 = unlimited)")
	shard := flag.String("shard", "0/1", "evaluate only shard i/m of the pair space (0 <= i < m)")
	metrics := flag.Bool("metrics", true, "measure dilation and average dilation per pair")
	congestion := flag.Bool("congestion", false, "measure netsim peak-link congestion per pair")
	doPlace := flag.Bool("place", false, "run the congestion-aware placement search per embeddable pair (implies -congestion)")
	placeBudget := flag.Int("place-budget", 32, "candidate budget of each per-pair placement search")
	placeObjective := flag.String("place-objective", "1,1,0", "placement objective weights α,β,γ")
	placeAnneal := flag.Bool("place-anneal", false, "refine each pair's placement front by seeded simulated annealing")
	placeAnnealMoves := flag.String("place-anneal-moves", "", "annealing move repertoire of the placement searches: swap (default) or all")
	placeSeed := flag.Int64("place-seed", 0, "annealing RNG seed of the placement searches (0 = default)")
	jsonOut := flag.String("json", "", "write the census artifact to this file")
	ndjsonOut := flag.String("ndjson", "", "write the census as an NDJSON stream artifact to this file")
	merge := flag.Bool("merge", false, "merge the shard artifacts (files, globs or directories) named as arguments instead of sweeping")
	worker := flag.Bool("worker", false, "distributed-driver worker mode: stream the shard census as NDJSON on stdout")
	resume := flag.String("resume", "", "worker mode: scan this partial NDJSON artifact and skip pairs already present")
	workerAbort := flag.Int("worker-abort", 0,
		"worker mode testing hook: exit(3) mid-stream after emitting this many records (0 = never)")
	showShapes := flag.Bool("shapes", false, "list the canonical shapes first")
	threshold := flag.Int("threshold", embed.MaterializeThreshold(),
		"guest-size cutoff for kernel table materialization (<= 0 disables)")
	timing := flag.Bool("time", false, "report the wall time of the sweep")
	flag.Parse()

	if *merge {
		runMerge(flag.Args(), *jsonOut, *ndjsonOut)
		return
	}
	embed.SetMaterializeThreshold(*threshold)
	if *n < 2 {
		fatalf("sweep: -n must be at least 2")
	}
	if !*worker && (*resume != "" || *workerAbort != 0) {
		fatalf("sweep: -resume and -worker-abort require -worker")
	}
	if *worker && (*jsonOut != "" || *ndjsonOut != "") {
		// The worker's artifact is its stdout stream; silently writing
		// nothing to the named files would strand a later -merge.
		fatalf("sweep: -json and -ndjson cannot be combined with -worker")
	}
	shardIdx, shardCount, err := parseShard(*shard)
	if err != nil {
		fatalf("sweep: %v", err)
	}
	shapes := catalog.CanonicalShapesOfSize(*n, *maxDim)
	if *showShapes && !*worker {
		for _, s := range shapes {
			fmt.Println(s)
		}
		fmt.Println()
	}
	cfg := census.Config{
		Size:       *n,
		MaxDim:     *maxDim,
		Shapes:     shapes,
		Shard:      shardIdx,
		Shards:     shardCount,
		Metrics:    *metrics,
		Congestion: *congestion,
		Embed:      core.Embed,
	}
	if *doPlace {
		obj, err := place.ParseObjective(*placeObjective)
		if err != nil {
			fatalf("sweep: %v", err)
		}
		placeCfg := place.Config{
			Objective:   obj,
			Budget:      *placeBudget,
			CapDilation: true,
			Rotations:   true,
			Anneal:      *placeAnneal,
			AnnealMoves: *placeAnnealMoves,
			Seed:        *placeSeed,
			Strategies:  place.DefaultStrategies(),
		}
		// Settings that would fail every pair's search fail the sweep.
		if err := placeCfg.ValidateSettings(); err != nil {
			fatalf("sweep: %v", err)
		}
		cfg.Congestion = true // the search is compared against the congestion baseline
		cfg.Place, cfg.PlaceSpec = place.CensusFunc(placeCfg)
	} else if *placeAnneal || *placeSeed != 0 || *placeAnnealMoves != "" {
		fatalf("sweep: -place-anneal, -place-anneal-moves and -place-seed require -place")
	}
	if *doPlace && !*placeAnneal && (*placeSeed != 0 || *placeAnnealMoves != "") {
		fatalf("sweep: -place-seed and -place-anneal-moves require -place-anneal")
	}
	if *worker {
		runWorker(cfg, *resume, *workerAbort)
		return
	}
	c, err := census.Run(cfg)
	if err != nil {
		fatalf("sweep: %v", err)
	}
	report(os.Stdout, c)
	if *timing {
		fmt.Printf("\nswept in %s across %d worker(s)", c.Elapsed, par.Workers())
		if worst := c.SlowestPair(); worst != nil {
			fmt.Printf("; slowest pair %s -> %s took %s", worst.Guest, worst.Host, worst.Wall)
		}
		fmt.Println()
	}
	save(c, *jsonOut, *ndjsonOut)
	exitCode(c)
}

// runWorker is the distributed-driver worker mode: evaluate the shard
// and stream its census as NDJSON on stdout, one record per finished
// pair. With a resume artifact, pairs already present are skipped. The
// process exits 0 even when records carry verification failures — in
// worker mode those are data for the driver, which surfaces them in
// the merged census.
func runWorker(cfg census.Config, resume string, abortAfter int) {
	if resume != "" {
		h, done, err := census.ScanStreamFile(resume)
		if err != nil {
			fatalf("sweep: -resume: %v", err)
		}
		if err := h.SameCensus(cfg.StreamHeader()); err != nil {
			fatalf("sweep: -resume artifact does not match this sweep: %v", err)
		}
		skip := make(map[int]bool, len(done))
		for i := range done {
			skip[done[i].Index] = true
		}
		cfg.Skip = func(i int) bool { return skip[i] }
	}
	sw, err := census.NewStreamWriter(os.Stdout, cfg.StreamHeader())
	if err != nil {
		fatalf("sweep: %v", err)
	}
	emitted := 0
	cfg.OnResult = func(r *census.PairResult) {
		if err := sw.Write(r); err != nil {
			fatalf("sweep: stream write: %v", err)
		}
		emitted++
		if abortAfter > 0 && emitted >= abortAfter {
			// Testing hook: die the way a crashed or killed worker
			// would, mid-stream with a nonzero exit.
			fmt.Fprintf(os.Stderr, "sweep: -worker-abort after %d record(s)\n", emitted)
			os.Exit(exitWorkerAbort)
		}
	}
	if _, err := census.Run(cfg); err != nil {
		fatalf("sweep: %v", err)
	}
}

// runMerge combines shard artifacts, reports the merged census, and
// optionally writes it back out.
func runMerge(args []string, jsonOut, ndjsonOut string) {
	paths := expandArtifactArgs(args)
	parts := make([]*census.Census, len(paths))
	for i, p := range paths {
		c, err := census.ReadFileAny(p)
		if err != nil {
			fatalf("sweep: %v", err)
		}
		parts[i] = c
	}
	c, err := census.Merge(parts...)
	if err != nil {
		fatalf("sweep: %v", err)
	}
	fmt.Printf("merged %d shard artifact(s)\n", len(parts))
	report(os.Stdout, c)
	save(c, jsonOut, ndjsonOut)
	exitCode(c)
}

// expandArtifactArgs resolves -merge arguments: a directory expands to
// every *.json and *.ndjson inside it, a glob pattern to its matches,
// and anything else must be an existing file. An argument that matches
// nothing is a usage error — silently merging fewer shards than the
// operator listed would be caught by Merge's completeness check only
// if an entire shard went missing, not if a duplicate-covering file
// did, so fail early and name the argument.
func expandArtifactArgs(args []string) []string {
	if len(args) == 0 {
		fatalf("sweep: -merge needs at least one artifact file, glob or directory")
	}
	var paths []string
	for _, arg := range args {
		if info, err := os.Stat(arg); err == nil && info.IsDir() {
			var inDir []string
			for _, pat := range []string{"*.json", "*.ndjson"} {
				m, err := filepath.Glob(filepath.Join(arg, pat))
				if err != nil {
					fatalf("sweep: %s: %v", arg, err)
				}
				inDir = append(inDir, m...)
			}
			if len(inDir) == 0 {
				fatalf("sweep: directory %s holds no *.json or *.ndjson artifacts", arg)
			}
			sort.Strings(inDir)
			paths = append(paths, inDir...)
			continue
		}
		matches, err := filepath.Glob(arg)
		if err != nil {
			fatalf("sweep: bad pattern %q: %v", arg, err)
		}
		if len(matches) == 0 {
			fatalf("sweep: no artifact matches %q", arg)
		}
		sort.Strings(matches)
		paths = append(paths, matches...)
	}
	return paths
}

// report prints the census summary: the coverage header with
// construction and verification failures reported distinctly, then the
// per-strategy table with dilation histograms and peak congestion.
func report(w io.Writer, c *census.Census) {
	fmt.Fprintf(w, "size %d: %d canonical shapes, %d ordered (shape,kind) pairs",
		c.Size, len(c.Shapes), c.SpacePairs)
	if c.Shards > 1 {
		fmt.Fprintf(w, " (shard %d/%d: %d pairs)", c.Shard, c.Shards, c.Pairs)
	}
	fmt.Fprintln(w)
	pct := 0.0
	if c.Pairs > 0 {
		pct = 100 * float64(c.Embeddable) / float64(c.Pairs)
	}
	fmt.Fprintf(w, "embeddable: %d (%.1f%%), no construction applies: %d\n",
		c.Embeddable, pct, c.ConstructFailures)
	if c.VerifyFailures > 0 {
		fmt.Fprintf(w, "VERIFICATION FAILURES: %d (constructions built but broke injectivity or their dilation guarantee)\n",
			c.VerifyFailures)
		for i := range c.Results {
			if c.Results[i].FailureStage == census.StageVerify {
				fmt.Fprintf(w, "  %s -> %s: %s\n", c.Results[i].Guest, c.Results[i].Host, c.Results[i].Failure)
			}
		}
	}
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	header := "strategy\tpairs"
	if c.Metrics {
		header += "\tdilation histogram"
	}
	if c.Congestion {
		header += "\tpeak congestion\tcongestion histogram"
	}
	if c.Placed {
		header += "\tplace wins"
	}
	fmt.Fprintln(tw, header)
	var peak, wins map[string]int
	if c.Congestion {
		peak = c.PeakCongestion()
	}
	if c.Placed {
		wins = c.PlaceImprovements()
	}
	keys := make([]string, 0, len(c.ByStrategy))
	for k := range c.ByStrategy {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		// The histogram columns render the artifact's per-strategy
		// histogram block, so what the report shows is exactly what a
		// consumer of the JSON artifact would read.
		sh := c.Histograms[k]
		if sh == nil {
			sh = &census.StrategyHistogram{}
		}
		fmt.Fprintf(tw, "%s\t%d", k, c.ByStrategy[k])
		if c.Metrics {
			fmt.Fprintf(tw, "\t%s", histogram(sh.Dilation))
		}
		if c.Congestion {
			fmt.Fprintf(tw, "\t%d\t%s", peak[k], histogram(sh.Congestion))
		}
		if c.Placed {
			fmt.Fprintf(tw, "\t%d", wins[k])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// histogram renders a dilation->count map as "d:count" pairs in
// increasing dilation order.
func histogram(h map[int]int) string {
	if len(h) == 0 {
		return "-"
	}
	ds := make([]int, 0, len(h))
	for d := range h {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%d:%d", d, h[d])
	}
	return strings.Join(parts, " ")
}

func save(c *census.Census, jsonPath, ndjsonPath string) {
	if jsonPath != "" {
		if err := c.WriteFile(jsonPath); err != nil {
			fatalf("sweep: %v", err)
		}
	}
	if ndjsonPath != "" {
		if err := c.WriteStreamFile(ndjsonPath); err != nil {
			fatalf("sweep: %v", err)
		}
	}
}

// exitCode fails the process when any construction broke verification —
// a library bug, unlike pairs the paper's conditions simply do not
// cover.
func exitCode(c *census.Census) {
	if c.VerifyFailures > 0 {
		os.Exit(exitVerifyFailures)
	}
}

// parseShard parses "i/m", rejecting any trailing input — a typo like
// 1/2/8 must not silently evaluate the wrong partition.
func parseShard(s string) (idx, count int, err error) {
	before, after, ok := strings.Cut(s, "/")
	if ok {
		idx, err = strconv.Atoi(before)
		if err == nil {
			count, err = strconv.Atoi(after)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("-shard must look like 2/8, got %q", s)
	}
	if count < 1 || idx < 0 || idx >= count {
		return 0, 0, fmt.Errorf("-shard %d/%d out of range", idx, count)
	}
	return idx, count, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(exitUsage)
}
