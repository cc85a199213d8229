package torusmesh_test

// The benchmark harness regenerates every experiment (one benchmark per
// table/figure of the paper, E01..E19 per DESIGN.md), and adds
// micro-benchmarks for the core operations and the ablation comparisons
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
import (
	"io"
	"testing"

	"torusmesh"
	"torusmesh/internal/experiments"
)

// benchExperiment times the full regeneration of one experiment table.
func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE01Preliminaries(b *testing.B)       { benchExperiment(b, "E01") }
func BenchmarkE02SpreadExample(b *testing.B)       { benchExperiment(b, "E02") }
func BenchmarkE03ReflectionAblation(b *testing.B)  { benchExperiment(b, "E03") }
func BenchmarkE04BasicSequences(b *testing.B)      { benchExperiment(b, "E04") }
func BenchmarkE05LineRingInMesh(b *testing.B)      { benchExperiment(b, "E05") }
func BenchmarkE06BasicMatrix(b *testing.B)         { benchExperiment(b, "E06") }
func BenchmarkE07Hamiltonian(b *testing.B)         { benchExperiment(b, "E07") }
func BenchmarkE08ExpansionExample(b *testing.B)    { benchExperiment(b, "E08") }
func BenchmarkE09IncreasingMatrix(b *testing.B)    { benchExperiment(b, "E09") }
func BenchmarkE10Hypercube(b *testing.B)           { benchExperiment(b, "E10") }
func BenchmarkE11SimpleReduction(b *testing.B)     { benchExperiment(b, "E11") }
func BenchmarkE12GeneralReduction(b *testing.B)    { benchExperiment(b, "E12") }
func BenchmarkE13SquareLoweringDiv(b *testing.B)   { benchExperiment(b, "E13") }
func BenchmarkE14SquareLoweringChain(b *testing.B) { benchExperiment(b, "E14") }
func BenchmarkE15SquareIncreasing(b *testing.B)    { benchExperiment(b, "E15") }
func BenchmarkE16Literature(b *testing.B)          { benchExperiment(b, "E16") }
func BenchmarkE17Epsilon(b *testing.B)             { benchExperiment(b, "E17") }
func BenchmarkE18Netsim(b *testing.B)              { benchExperiment(b, "E18") }
func BenchmarkE19LowerBounds(b *testing.B)         { benchExperiment(b, "E19") }
func BenchmarkE20Census(b *testing.B)              { benchExperiment(b, "E20") }
func BenchmarkE21Contraction(b *testing.B)         { benchExperiment(b, "E21") }

// --- Micro-benchmarks: the basic sequences -------------------------------

func BenchmarkGrayFPoint(b *testing.B) {
	L := torusmesh.Shape{8, 8, 8, 8}
	n := L.Size()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = torusmesh.GrayF(L, i%n)
	}
}

func BenchmarkGrayFInv(b *testing.B) {
	L := torusmesh.Shape{8, 8, 8, 8}
	n := L.Size()
	nodes := make([]torusmesh.Node, n)
	for x := 0; x < n; x++ {
		nodes[x] = torusmesh.GrayF(L, x)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = torusmesh.GrayFInv(L, nodes[i%n])
	}
}

func BenchmarkGrayGPoint(b *testing.B) {
	L := torusmesh.Shape{8, 8, 8, 8}
	n := L.Size()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = torusmesh.GrayG(L, i%n)
	}
}

func BenchmarkGrayHPoint(b *testing.B) {
	L := torusmesh.Shape{8, 8, 8, 8}
	n := L.Size()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = torusmesh.GrayH(L, i%n)
	}
}

// --- Micro-benchmarks: embedding construction and measurement ------------

func BenchmarkEmbedConstructRingMesh(b *testing.B) {
	g := torusmesh.Ring(4096)
	h := torusmesh.Mesh(16, 16, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := torusmesh.Embed(g, h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmbedConstructSquareChain(b *testing.B) {
	g := torusmesh.SquareMesh(5, 4)
	h := torusmesh.SquareMesh(2, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := torusmesh.Embed(g, h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmbedMapEval(b *testing.B) {
	em := torusmesh.MustEmbed(torusmesh.Ring(24), torusmesh.Mesh(4, 2, 3))
	node := torusmesh.Node{7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node[0] = i % 24
		_ = em.Map(node)
	}
}

// BenchmarkEmbedMapEvalChain evaluates a node through the composed
// Theorem 51 chain (three general-reduction hops).
func BenchmarkEmbedMapEvalChain(b *testing.B) {
	em := torusmesh.MustEmbed(torusmesh.SquareMesh(5, 4), torusmesh.SquareMesh(2, 32))
	node := torusmesh.Node{1, 2, 3, 0, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node[0] = i % 4
		_ = em.Map(node)
	}
}

func BenchmarkDilationMeasure4096(b *testing.B) {
	e := torusmesh.MustEmbed(torusmesh.Ring(4096), torusmesh.Mesh(16, 16, 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := e.Dilation(); d != 1 {
			b.Fatalf("dilation %d", d)
		}
	}
}

// BenchmarkDilationPerNodeTorus32 vs BenchmarkDilationBatchTorus32: the
// per-node closure walk against Dilation on a 32x32x32 torus-into-mesh
// embedding (32768 nodes, 98304 edges). The construction compiles to a
// carry-free digit kernel, so Dilation takes its closed-form route: 96
// axis edges, with no table and no edge pass. It must be at least 2x
// faster with at least 10x fewer allocs/op.
func BenchmarkDilationPerNodeTorus32(b *testing.B) {
	e := torusmesh.MustEmbed(torusmesh.SquareTorus(3, 32), torusmesh.SquareMesh(3, 32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := e.DilationPerNode(); d != 2 {
			b.Fatalf("dilation %d", d)
		}
	}
}

func BenchmarkDilationBatchTorus32(b *testing.B) {
	e := torusmesh.MustEmbed(torusmesh.SquareTorus(3, 32), torusmesh.SquareMesh(3, 32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := e.Dilation(); d != 2 {
			b.Fatalf("dilation %d", d)
		}
	}
}

func BenchmarkVerify4096(b *testing.B) {
	e := torusmesh.MustEmbed(torusmesh.Ring(4096), torusmesh.Mesh(16, 16, 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationRowMajorDilation vs BenchmarkAblationGrayDilation:
// measuring the dilation of the naive and reflected placements of a ring
// in a large mesh (the measured costs differ; the work is the same).
func BenchmarkAblationRowMajorDilation(b *testing.B) {
	rm, err := torusmesh.RowMajorEmbedding(torusmesh.Ring(4096), torusmesh.Mesh(16, 16, 16))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rm.Dilation()
	}
}

func BenchmarkAblationGrayDilation(b *testing.B) {
	e := torusmesh.MustEmbed(torusmesh.Ring(4096), torusmesh.Mesh(16, 16, 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Dilation()
	}
}

// --- Substrates -----------------------------------------------------------

func BenchmarkHamiltonianCircuit(b *testing.B) {
	sp := torusmesh.Torus(16, 16, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := torusmesh.HamiltonianCircuit(sp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetsimRingOnTorus(b *testing.B) {
	machine := torusmesh.Torus(16, 16)
	nw := torusmesh.NewNetwork(machine)
	tg := torusmesh.RingPipeline(256)
	p := torusmesh.PlacementFromEmbedding(torusmesh.MustEmbed(torusmesh.Ring(256), machine))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := torusmesh.Simulate(nw, tg, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinDilationBruteForce(b *testing.B) {
	g := torusmesh.Ring(9)
	h := torusmesh.Mesh(3, 3)
	for i := 0; i < b.N; i++ {
		if _, err := torusmesh.MinDilation(g, h, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLowerBoundBall(b *testing.B) {
	g := torusmesh.SquareMesh(4, 4)
	h := torusmesh.SquareMesh(2, 16)
	for i := 0; i < b.N; i++ {
		_ = torusmesh.DilationLowerBound(g, h)
	}
}

func BenchmarkManyToOneSimulation(b *testing.B) {
	g := torusmesh.Mesh(32, 24)
	h := torusmesh.Mesh(4, 2, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := torusmesh.SimulateManyToOne(g, h)
		if err != nil {
			b.Fatal(err)
		}
		if sim.Load != 32 {
			b.Fatalf("load %d", sim.Load)
		}
	}
}

func BenchmarkRenderEmbedding(b *testing.B) {
	e := torusmesh.MustEmbed(torusmesh.Ring(24), torusmesh.Mesh(4, 2, 3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = torusmesh.RenderEmbedding(e)
	}
}
