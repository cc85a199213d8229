// The reproducible benchmark runner behind `experiments -bench`: it
// drives the performance-critical kernels of the annealing evaluation
// stack — LoadState construction, dense congestion, striped edge
// dilation, the per-move swap and a move evaluated and then dropped —
// the closed forms of congestion and LoadState construction (with the
// first Evaluate, which tiles the link array) on the paper embedding
// of the same pair and on a two-component bijection beside its routing
// pass, the small-pair and search passes (one size-120 census, default
// placement searches of a 16-node, a 4096-node and a 32768-node pair,
// and an annealed search of mesh(32x32) -> torus(8x8x16) under the
// extended move set) and two
// constructions (a mid-rotated prime refinement of the 32³ pair, built
// and materialized, and the census-sized torus(8x15) -> mesh(4x5x6),
// built only) and one hot placed request (the /place handler answering
// a searched pair) through testing.Benchmark at one worker and at the
// machine's full worker count, and renders the results as a versioned
// BENCH.json. The artifact is the repo's recorded perf trajectory: CI
// runs the runner as a smoke (the numbers themselves are
// machine-dependent; the alloc gates live in the test suites), and a
// committed BENCH.json documents the shape of the scaling claims next
// to the code that makes them.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"torusmesh/internal/catalog"
	"torusmesh/internal/census"
	"torusmesh/internal/core"
	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/netsim"
	"torusmesh/internal/obs"
	"torusmesh/internal/par"
	"torusmesh/internal/place"
	"torusmesh/internal/serve"
	"torusmesh/internal/taskgraph"
)

// BenchVersion is the schema version stamped into BENCH.json. Bump it
// when the result fields or the benchmark set change meaning.
const BenchVersion = 1

// BenchResult is one benchmark's measurement.
type BenchResult struct {
	// Name identifies the kernel and configuration, e.g.
	// "loadstate-init/torus:16x16x16->mesh:16x16x16/workers=8".
	Name string `json:"name"`
	// N is the iteration count testing.Benchmark settled on.
	N int `json:"n"`
	// NsPerOp, AllocsPerOp and BytesPerOp are the standard Go benchmark
	// outputs.
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// BenchReport is the BENCH.json document.
type BenchReport struct {
	Version    int           `json:"version"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	MaxWorkers int           `json:"max_workers"`
	Results    []BenchResult `json:"results"`
}

// benchPair is the fixed workload: a 4096-node pair whose 12288 guest
// edges split into many accumulator blocks, so the striped routing pass
// behind both LoadState construction and Congestion is what gets
// measured.
func benchPair() (*netsim.Network, *taskgraph.Graph, grid.Spec, netsim.Placement) {
	host := grid.MeshSpec(16, 16, 16)
	guest := grid.TorusSpec(16, 16, 16)
	nw := netsim.New(host)
	rng := rand.New(rand.NewSource(9))
	p := netsim.Placement(rng.Perm(nw.Size()))
	return nw, taskgraph.FromSpec(guest), guest, p
}

// withWorkers runs fn under a temporary GOMAXPROCS.
func withWorkers(n int, fn func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// runOne executes fn under testing.Benchmark and records it.
func runOne(report *BenchReport, name string, fn func(b *testing.B)) {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	report.Results = append(report.Results, BenchResult{
		Name:        name,
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	})
}

// runScaling runs the kernel at one worker and at the full worker
// count, which is what makes the striping speedups visible in the
// artifact.
func runScaling(report *BenchReport, name string, fn func(b *testing.B)) {
	counts := []int{1}
	if report.MaxWorkers > 1 {
		counts = append(counts, report.MaxWorkers)
	}
	for _, workers := range counts {
		label := fmt.Sprintf("%s/workers=%d", name, workers)
		withWorkers(workers, func() { runOne(report, label, fn) })
	}
}

// RunBench measures the annealing evaluation kernels and the
// small-pair passes and returns the report.
func RunBench() (*BenchReport, error) {
	nw, tg, guest, p := benchPair()
	pairName := fmt.Sprintf("%s->%s", guest, nw.Spec)
	rd := nw.Spec.NewRankDistancer()
	report := &BenchReport{
		Version:    BenchVersion,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		MaxWorkers: par.Workers(),
	}

	runScaling(report, "loadstate-init/"+pairName, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netsim.NewLoadState(nw, tg, p); err != nil {
				b.Fatal(err)
			}
		}
	})

	runScaling(report, "congestion/"+pairName, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netsim.Congestion(nw, tg, p); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The same two kernels on the pair's paper embedding, a proved
	// bijection: congestion in closed form from its axis images, and a
	// LoadState whose loads are tiled from the closed form's slices.
	// The guest's edge list and incidence lists are built once, as a
	// search builds them once for all of its annealing seeds. The tile
	// waits for a state's first Evaluate, so the tiled rows time
	// construction plus one evaluated swap.
	paper, err := core.Embed(guest, nw.Spec)
	if err != nil {
		return nil, err
	}
	paper.Kernel() // materialize the table, as a scored seed has one
	g := netsim.NewGuest(guest)
	runScaling(report, "congestion-closed-form/"+pairName, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := netsim.EmbeddingCongestion(nw, g, paper); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := initTiled(nw, g, paper); err != nil {
		return nil, err
	}
	runScaling(report, "loadstate-init-tiled/"+pairName, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := initTiled(nw, g, paper); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The same closed forms on a bijection of two 64-point components,
	// each folding two guest axes onto one host axis, beside the routing
	// pass over the same placement.
	compGuest, compHost := grid.TorusSpec(16, 16, 4, 4), grid.MeshSpec(64, 64)
	comp, err := core.Embed(compGuest, compHost)
	if err != nil {
		return nil, err
	}
	compName := fmt.Sprintf("%s->%s", compGuest, compHost)
	compNet, compG := netsim.New(compHost), netsim.NewGuest(compGuest)
	compTable := netsim.Placement(comp.Table())
	runScaling(report, "congestion/"+compName, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netsim.Congestion(compNet, compG.Graph(), compTable); err != nil {
				b.Fatal(err)
			}
		}
	})
	runScaling(report, "congestion-closed-form/"+compName, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := netsim.EmbeddingCongestion(compNet, compG, comp); err != nil {
				b.Fatal(err)
			}
		}
	})
	runScaling(report, "loadstate-init-tiled/"+compName, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := initTiled(compNet, compG, comp); err != nil {
				b.Fatal(err)
			}
		}
	})

	tab := []int(p)
	runScaling(report, "edge-dilation-striped/"+pairName, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			guest.EdgeDilationStriped(tab, rd)
		}
	})

	// The per-move kernel of an anneal step: one swap plus the aggregate
	// reads an acceptance decision needs. Steady state must not allocate
	// — the alloc gates in internal/netsim pin that to zero.
	ls, err := netsim.NewLoadState(nw, tg, p)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(13))
	n := tg.N
	runOne(report, "anneal-move/swap/"+pairName, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u := rng.Intn(n)
			v := rng.Intn(n - 1)
			if v >= u {
				v++
			}
			if err := ls.Swap(u, v); err != nil {
				b.Fatal(err)
			}
			_ = ls.Stats()
			ls.Dilation()
		}
	})

	// A move the annealing pass evaluates and then rejects: proposed,
	// routed into its per-link delta and dropped, so the loads never
	// change. Steady state must not allocate either.
	guests, hosts := make([]int32, 2), make([]int32, 2)
	runOne(report, "anneal-move/evaluate-drop/"+pairName, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u := rng.Intn(n)
			v := rng.Intn(n - 1)
			if v >= u {
				v++
			}
			guests[0], guests[1] = int32(u), int32(v)
			hosts[0], hosts[1] = int32(ls.HostOf(v)), int32(ls.HostOf(u))
			ls.Propose(guests, hosts)
			if _, _, _, err := ls.Evaluate(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The same per-move kernel with the counter increments the
	// instrumented annealing loop performs per step (one step counter,
	// one accept-or-reject counter) — the obs-overhead benchmark. The
	// delta against anneal-move/swap is the price of observability, and
	// the alloc column must stay identical: counting is atomic adds,
	// never allocation.
	obsReg := obs.NewRegistry()
	obsSteps := obsReg.Counter("bench_anneal_steps_total")
	obsAccepted := obsReg.Counter("bench_anneal_moves_accepted_total")
	obsRejected := obsReg.Counter("bench_anneal_moves_rejected_total")
	runOne(report, "anneal-move/swap+obs/"+pairName, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u := rng.Intn(n)
			v := rng.Intn(n - 1)
			if v >= u {
				v++
			}
			if err := ls.Swap(u, v); err != nil {
				b.Fatal(err)
			}
			_ = ls.Stats()
			ls.Dilation()
			obsSteps.Inc()
			if i&1 == 0 {
				obsAccepted.Inc()
			} else {
				obsRejected.Inc()
			}
		}
	})

	// Small pairs: the census and the placement search measure
	// thousands of 120–360-node pairs, where per-pair allocation rather
	// than per-edge work sets the pace: one size-120 census pass with
	// every measurement on.
	censusCfg := census.Config{
		Size:       120,
		MaxDim:     3,
		Shapes:     catalog.CanonicalShapesOfSize(120, 3),
		Metrics:    true,
		Congestion: true,
		Embed:      core.Embed,
	}
	runScaling(report, "census-pass/size=120,maxdim=3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := census.Run(censusCfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Searches at the place CLI's defaults (annealing off): the small
	// pair, and the 16³ and 32³ pairs, whose candidates the dilation cap
	// mostly discards. Every candidate of those two is measured and
	// scored in closed form, so neither search makes a table.
	for _, pair := range [][2]grid.Spec{
		{grid.TorusSpec(8, 2), grid.MeshSpec(4, 4)},
		{grid.TorusSpec(16, 16, 16), grid.MeshSpec(16, 16, 16)},
		{grid.TorusSpec(32, 32, 32), grid.MeshSpec(32, 32, 32)},
	} {
		searchCfg := place.Config{
			Guest:       pair[0],
			Host:        pair[1],
			CapDilation: true,
			Rotations:   true,
			Strategies:  place.DefaultStrategies(),
		}
		runScaling(report, fmt.Sprintf("place-search/%s->%s", searchCfg.Guest, searchCfg.Host), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := place.Search(searchCfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// An annealed search: the largest pair of the benchmark's search
	// cycle, under the extended move set, whose evaluated moves dominate
	// it.
	annealCfg := place.Config{
		Guest:       grid.MeshSpec(32, 32),
		Host:        grid.TorusSpec(8, 8, 16),
		CapDilation: true,
		Rotations:   true,
		Anneal:      true,
		AnnealMoves: place.AnnealMovesAll,
		Strategies:  place.DefaultStrategies(),
	}
	runScaling(report, fmt.Sprintf("place-search-anneal/%s->%s", annealCfg.Guest, annealCfg.Host), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := place.Search(annealCfg); err != nil {
				b.Fatal(err)
			}
		}
	})

	// One construction layer row: build the 32³ pair's prime refinement
	// around a rotated intermediate (expansion, rotation, reduction —
	// compiled into one digit kernel) and materialize its table.
	bigGuest, bigHost := grid.TorusSpec(32, 32, 32), grid.MeshSpec(32, 32, 32)
	midRot := make([]int, core.PrimeIntermediate(bigGuest, bigHost).Dim())
	midRot[0] = 1
	rotate := func(mid grid.Spec) (*embed.Embedding, error) { return embed.Rotate(mid, midRot) }
	runScaling(report, fmt.Sprintf("construct/primes-midrot/%s->%s", bigGuest, bigHost), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := core.EmbedViaPrimesMid(bigGuest, bigHost, rotate)
			if err != nil {
				b.Fatal(err)
			}
			e.Kernel()
		}
	})
	// A census-sized construction: torus(8x15) -> mesh(4x5x6) is a
	// prime refinement (an expansion, then a simple reduction) of a
	// placement-census pair, built without materializing its table, as
	// the census and the placement search build thousands per pass.
	smallGuest, smallHost := grid.TorusSpec(8, 15), grid.MeshSpec(4, 5, 6)
	runScaling(report, fmt.Sprintf("construct/embed/%s->%s", smallGuest, smallHost), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Embed(smallGuest, smallHost); err != nil {
				b.Fatal(err)
			}
		}
	})
	return report, runPlaceHot(report)
}

// initTiled builds the load state of e's own placement and evaluates
// one swap on it, which tiles the link array of a proved bijection.
func initTiled(nw *netsim.Network, g *netsim.Guest, e *embed.Embedding) error {
	ls, err := netsim.NewEmbeddingLoadState(nw, g, e)
	if err != nil {
		return err
	}
	ls.Propose([]int32{0, 1}, []int32{int32(ls.HostOf(1)), int32(ls.HostOf(0))})
	_, _, _, err = ls.Evaluate()
	return err
}

// runPlaceHot records one hot placed request: the /place handler
// answering torus(8x2) -> mesh(4x4) from its searched entry, under
// placed's default search settings, into an httptest recorder.
func runPlaceHot(report *BenchReport) error {
	g, h := grid.TorusSpec(8, 2), grid.MeshSpec(4, 4)
	srv, err := serve.New(serve.Config{Place: place.Config{
		Objective:   place.DefaultObjective(),
		CapDilation: true,
		Rotations:   true,
		Strategies:  place.DefaultStrategies(),
	}})
	if err != nil {
		return err
	}
	defer srv.Close()
	if _, err := srv.Place(context.Background(), g, h, true); err != nil {
		return err
	}
	hd := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/place?from=torus:8x2&to=mesh:4x4", nil)
	runScaling(report, fmt.Sprintf("serve/place-hot/%s->%s", g, h), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			hd.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
	})
	return nil
}

// WriteBench runs the benchmark suite and writes BENCH.json to w.
func WriteBench(w io.Writer) error {
	report, err := RunBench()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
