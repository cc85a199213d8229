// Package torusmesh implements the embedding constructions of Eva Ma and
// Lixin Tao, "Embeddings Among Toruses and Meshes" (ICPP 1987; UPenn TR
// MS-CIS-88-63): minimum-dilation injections between d-dimensional
// toruses and meshes of equal size, built from a generalization of Gray
// codes to mixed-radix numbering systems.
//
// # Quick start
//
//	g := torusmesh.Ring(24)            // a 24-node ring task graph
//	h := torusmesh.Mesh(4, 2, 3)       // a 4x2x3 mesh machine
//	e, err := torusmesh.Embed(g, h)    // dilation-1 embedding (Theorem 24)
//	if err != nil { ... }
//	fmt.Println(e.Dilation())          // 1
//	fmt.Println(e.Map(torusmesh.Node{7})) // host coordinates of ring node 7
//
// # What you get
//
//   - Embed: the universal dispatcher covering every case the paper
//     solves — basic embeddings of lines and rings (Section 3),
//     expansion embeddings for increasing dimension (Section 4.1),
//     simple and general reductions for lowering dimension (Section
//     4.2), and the always-applicable constructions for square graphs
//     (Section 5). Each returned Embedding carries the paper's dilation
//     guarantee in Predicted and measures its true cost with Dilation.
//   - Gray-code sequences: F, G, H, R, TN — the mixed-radix sequences of
//     Definitions 9, 14, 15, 20 and 22, with inverses.
//   - Hamiltonian circuits and paths of toruses and meshes (Corollaries
//     18, 25, 29).
//   - Ground truth: exact minimum dilation by branch-and-bound for tiny
//     instances, ball-counting and degree lower bounds (Theorem 47), and
//     the literature baselines the paper compares against (Fitzgerald,
//     Ma & Narahari, Harper).
//   - A miniature interconnection-network simulator demonstrating that
//     dilation drives communication latency when task graphs are placed
//     on torus/mesh machines — the paper's motivating application.
//
// # The batch engine
//
// An embedding is its kernel, the index-native form: a batch evaluator
// over row-major ranks; Map, the per-node view of Definition 1, reads
// one rank through it. Every construction in the paper is
// digit-separable — each guest coordinate independently determines a
// fixed set of host digits — so each writes its per-digit contribution
// table (host rank = Σ_i contrib[i][digit_i]) directly, one sequence
// evaluation per (axis, value), and guests up to
// SetMaterializeThreshold nodes materialize into flat
// lookup tables whose compositions fuse into a single table. The
// measurement paths (Dilation, AverageDilation, Verify) answer from
// the contribution table's closed forms when they apply: dilation from
// the Σ l_i axis edges, injectivity from a bijection proof over the
// kernel's components (groups of guest axes that move disjoint host
// digits). Otherwise
// Verify scans the lookup table, or the kernel's images in parallel
// blocks, and Dilation and AverageDilation enumerate guest edges in
// rank blocks striped across GOMAXPROCS workers, with rank-native
// distance reductions. All are several times faster than the per-node
// walks (kept as DilationPerNode and friends) with near-zero
// steady-state allocation. MapRanks exposes bulk evaluation for
// runtime systems that store placements as rank tables; the netsim
// routing and congestion pipelines run on the same worker pool.
//
// # The census engine
//
// The repo measures itself with a sharded coverage census
// (internal/census, CLI: cmd/sweep): for one size, every ordered pair
// of canonical torus/mesh shapes in both kind combinations is embedded,
// verified, and measured — strategy, dilation, average dilation,
// optional peak-link congestion under dimension-ordered routing, and
// the failure reason split into "no construction applies" versus "a
// construction broke its guarantee". Pairs are striped across the
// worker pool, and the pair space partitions deterministically into
// shards (pair i belongs to shard i mod m), so production-scale sweeps
// split across processes:
//
//	sweep -n 360 -maxdim 4 -shard 0/2 -json s0.json
//	sweep -n 360 -maxdim 4 -shard 1/2 -json s1.json
//	sweep -merge -json full.json s0.json s1.json
//
// Censuses serialize to versioned JSON artifacts whose encoding is
// deterministic (fixed field order, sorted map keys, wall times
// excluded): {version, size, maxdim, shard, shards, metrics,
// congestion, placed, place_spec, shapes, space_pairs, pairs, embeddable,
// construct_failures, verify_failures, by_strategy, histograms,
// results[]}, where histograms maps each strategy to its per-dilation
// and per-peak-congestion pair counts and each results entry carries
// {index, guest, host, strategy, predicted, dilation, avg_dilation,
// congestion, place, failure, failure_stage}.
// census.Merge validates size/maxdim/version/flag compatibility,
// demands each shard exactly once, and reproduces the unsharded census
// bit for bit — the invariant CI re-checks on every push. The schema
// is pinned by a golden-file test; changing the serialized form
// requires bumping census.ArtifactVersion.
//
// # The placement engine
//
// The paper's constructions minimize dilation; the placement engine
// (internal/place, CLI: cmd/place) additionally minimizes congestion —
// the second classic embedding cost, decided by symmetries the
// constructions leave free. Place searches candidate embeddings (base
// strategies composed with guest/host axis permutations, mesh digit
// rotations, and rotations of the prime refinement's intermediate
// stage) and returns the Pareto front over (dilation, peakLinkLoad,
// meanUsedLinkLoad) — Result.Front — plus the front member minimizing
// a configurable objective
//
//	score = α·dilation + β·peakLinkLoad + γ·meanUsedLinkLoad
//
// with congestion computed by the netsim routing engine, candidates
// scored concurrently on the shared worker pool (one shared
// construction per base, host symmetries post-composed as table
// fusions), and Pareto-safe pruning that skips congestion scoring of
// candidates that can no longer join the front. Both the front and the
// winner are deterministic and reported next to the paper baseline; by
// default the winner is constrained to dilate no worse
// (PlacementOptions.CapDilation), and PlacementOptions.Anneal adds a
// seeded simulated-annealing refinement that admits a placement only
// when it strictly dominates its seed. Sweeps can record best-found
// placements per pair with `sweep -place`.
//
// # The distributed driver
//
// Above the census sits the distributed sweep driver (internal/driver,
// CLI: cmd/sweepd): one census runs as a fleet of shard workers —
// in-process for the library form (RunDistributed), or subprocesses
// exec'ing `sweep -worker`, each streaming its shard as NDJSON (a
// versioned header line, then one result line per finished pair). The
// driver folds the streams incrementally with census.Merge semantics,
// validates records structurally as they arrive, retries failed and
// short attempts with exponential backoff, re-issues stragglers, and
// journals every folded record so a killed run resumes (-resume) by
// skipping the pairs already on disk. Whatever the completion order,
// retry history, or resume split, the final artifact is byte-identical
// to a single unsharded run.
//
// # The placement service
//
// The fifth engine (internal/serve, CLI: cmd/placed) fronts the
// placement search as a long-running HTTP server answering "place
// guest G on host H" at interactive latency: requests normalize to
// their canonical pair (guest relabelings that provably share a
// Pareto front share one cache entry), concurrent cold misses
// singleflight into exactly one background search, the paper-baseline
// construction answers instantly while the search runs, and entries
// persist as the same versioned artifacts `place -json` writes — a
// warm cache directory and batch output are interchangeable, and
// census artifacts bulk-seed the cache (`placed -warm`, POST /warm).
//
// All public entry points are thin veneers over the internal packages;
// see ARCHITECTURE.md for the engine and module map, README.md for CLI
// usage, and internal/experiments (cmd/experiments) for the
// reproduction of every figure and claim in the paper.
package torusmesh
