package taskgraph

import (
	"testing"

	"torusmesh/internal/grid"
)

func TestPipelineEdges(t *testing.T) {
	p := Pipeline(5)
	if p.N != 5 || len(p.Edges) != 4 {
		t.Fatalf("pipeline: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.MaxDegree() != 2 {
		t.Errorf("pipeline max degree = %d", p.MaxDegree())
	}
}

func TestRingPipelineSmall(t *testing.T) {
	// n = 2: the wrap edge would duplicate the single edge; it is omitted.
	r := RingPipeline(2)
	if len(r.Edges) != 1 {
		t.Errorf("ring-pipeline(2) edges = %d, want 1", len(r.Edges))
	}
	r = RingPipeline(5)
	if len(r.Edges) != 5 {
		t.Errorf("ring-pipeline(5) edges = %d, want 5", len(r.Edges))
	}
}

func TestFromSpecMatchesEdgeCount(t *testing.T) {
	for _, sp := range []grid.Spec{
		grid.MeshSpec(3, 4), grid.TorusSpec(3, 4), grid.MeshSpec(2, 2, 2),
	} {
		g := FromSpec(sp)
		if len(g.Edges) != sp.EdgeCount() {
			t.Errorf("%s: %d edges, want %d", sp, len(g.Edges), sp.EdgeCount())
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", sp, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	bad := &Graph{Name: "bad", N: 3, Edges: [][2]int{{0, 3}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range edge accepted")
	}
	loop := &Graph{Name: "loop", N: 3, Edges: [][2]int{{1, 1}}}
	if err := loop.Validate(); err == nil {
		t.Error("self-loop accepted")
	}
	empty := &Graph{Name: "empty", N: 0}
	if err := empty.Validate(); err == nil {
		t.Error("empty graph accepted")
	}
}

// TestIncidence: every task lists exactly the edges touching it, in
// Edges order, and the lists cover each edge twice in total.
func TestIncidence(t *testing.T) {
	for _, g := range []*Graph{
		Pipeline(6),
		RingPipeline(5),
		FromSpec(grid.TorusSpec(3, 4)),
		FromSpec(grid.MeshSpec(2, 2, 3)),
	} {
		off, all := g.Incidence()
		if len(off) != g.N+1 {
			t.Fatalf("%s: incidence covers %d tasks, want %d", g.Name, len(off)-1, g.N)
		}
		total := 0
		for task := 0; task < g.N; task++ {
			edges := all[off[task]:off[task+1]]
			last := int32(-1)
			for _, ei := range edges {
				if ei <= last {
					t.Errorf("%s: task %d incidence out of order: %v", g.Name, task, edges)
				}
				last = ei
				e := g.Edges[ei]
				if e[0] != task && e[1] != task {
					t.Errorf("%s: task %d lists edge %v it does not touch", g.Name, task, e)
				}
			}
			total += len(edges)
		}
		if total != 2*len(g.Edges) {
			t.Errorf("%s: incidence lists %d endpoints, want %d", g.Name, total, 2*len(g.Edges))
		}
	}
}

func TestGeneratorsNamesAndDegrees(t *testing.T) {
	if Stencil2D(4, 5).Name != "stencil2d(4x5)" {
		t.Error("stencil2d name wrong")
	}
	if Stencil3D(2, 2, 2).MaxDegree() != 3 {
		t.Errorf("2x2x2 stencil max degree = %d, want 3", Stencil3D(2, 2, 2).MaxDegree())
	}
	if HaloExchange2D(4, 4).MaxDegree() != 4 {
		t.Error("halo max degree wrong")
	}
	if Hypercube(4).MaxDegree() != 4 {
		t.Error("hypercube max degree wrong")
	}
}
