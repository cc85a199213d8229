package contract

import (
	"testing"

	"torusmesh/internal/grid"
)

func TestBlockContractionMesh(t *testing.T) {
	guest := grid.MeshSpec(8, 6)
	host := grid.MeshSpec(4, 3)
	sim, err := BlockContraction(guest, host)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Load != 4 {
		t.Errorf("load = %d, want 4", sim.Load)
	}
	if err := sim.Verify(); err != nil {
		t.Fatal(err)
	}
	if d := sim.Dilation(); d != 1 {
		t.Errorf("dilation = %d, want 1 (KA88-style constant)", d)
	}
}

func TestBlockContractionTorus(t *testing.T) {
	guest := grid.TorusSpec(9, 4)
	host := grid.TorusSpec(3, 2)
	sim, err := BlockContraction(guest, host)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Load != 6 {
		t.Errorf("load = %d, want 6", sim.Load)
	}
	if err := sim.Verify(); err != nil {
		t.Fatal(err)
	}
	if d := sim.Dilation(); d != 1 {
		t.Errorf("dilation = %d, want 1", d)
	}
}

func TestBlockContractionRejects(t *testing.T) {
	if _, err := BlockContraction(grid.MeshSpec(8, 6), grid.MeshSpec(4, 4)); err == nil {
		t.Error("non-dividing host accepted")
	}
	if _, err := BlockContraction(grid.MeshSpec(8, 6), grid.MeshSpec(4)); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := BlockContraction(grid.TorusSpec(8, 6), grid.MeshSpec(4, 3)); err == nil {
		t.Error("torus-onto-mesh contraction accepted (wrap edges break)")
	}
}

func TestSimulateComposed(t *testing.T) {
	// A 16x12 mesh simulated on a 4x2x3 mesh machine: load 8, and the
	// dilation comes from the embedding of the contracted 8x... shape.
	guest := grid.MeshSpec(16, 12)
	host := grid.MeshSpec(4, 2, 3)
	sim, err := Simulate(guest, host)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Load != 8 {
		t.Errorf("load = %d, want 8", sim.Load)
	}
	if err := sim.Verify(); err != nil {
		t.Fatal(err)
	}
	if d := sim.Dilation(); d < 1 || d > 4 {
		t.Errorf("dilation = %d, expected a small constant", d)
	}
}

func TestSimulateEqualSizesFallsBackToEmbedding(t *testing.T) {
	sim, err := Simulate(grid.RingSpec(24), grid.MeshSpec(4, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if sim.Load != 1 {
		t.Errorf("load = %d, want 1", sim.Load)
	}
	if err := sim.Verify(); err != nil {
		t.Fatal(err)
	}
	if d := sim.Dilation(); d != 1 {
		t.Errorf("dilation = %d, want 1", d)
	}
}

func TestSimulateTorusOnTorus(t *testing.T) {
	guest := grid.TorusSpec(16, 16)
	host := grid.TorusSpec(8, 8)
	sim, err := Simulate(guest, host)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Load != 4 {
		t.Errorf("load = %d, want 4", sim.Load)
	}
	if err := sim.Verify(); err != nil {
		t.Fatal(err)
	}
	if d := sim.Dilation(); d != 1 {
		t.Errorf("dilation = %d, want 1", d)
	}
}

func TestSimulateRejectsNonMultiple(t *testing.T) {
	if _, err := Simulate(grid.MeshSpec(5, 5), grid.MeshSpec(2, 6)); err == nil {
		t.Error("non-multiple sizes accepted")
	}
}

func TestShrinkShape(t *testing.T) {
	out, ok := shrinkShape(grid.Shape{16, 12}, 8)
	if !ok || out.Size() != 24 {
		t.Errorf("shrinkShape = %v, %v", out, ok)
	}
	// Cannot shrink 2x2 by 3.
	if _, ok := shrinkShape(grid.Shape{2, 2}, 3); ok {
		t.Error("impossible shrink accepted")
	}
	// Cannot shrink below length 2: 2x2 by factor 2 would need a length-1
	// dimension.
	if _, ok := shrinkShape(grid.Shape{2, 2}, 2); ok {
		t.Error("shrink below minimum length accepted")
	}
	// Prime factor walk: 36 by 6 -> 2x3 remains.
	out, ok = shrinkShape(grid.Shape{6, 6}, 6)
	if !ok || out.Size() != 6 {
		t.Errorf("shrinkShape(6x6, 6) = %v, %v", out, ok)
	}
}

func TestPrimeFactors(t *testing.T) {
	got := primeFactors(60)
	want := []int{5, 3, 2, 2}
	if len(got) != len(want) {
		t.Fatalf("primeFactors(60) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("primeFactors(60) = %v, want %v", got, want)
		}
	}
}

// TestDilationMatchesPerEdgeWalk pins the batch edge-block Dilation to
// the retired per-node reference: a sequential VisitEdges walk through
// the map closure.
func TestDilationMatchesPerEdgeWalk(t *testing.T) {
	cases := []struct{ guest, host grid.Spec }{
		{grid.MeshSpec(8, 6), grid.MeshSpec(4, 3)},
		{grid.TorusSpec(9, 4), grid.TorusSpec(3, 2)},
		{grid.MeshSpec(16, 12), grid.MeshSpec(4, 2, 3)},
		{grid.TorusSpec(12, 12), grid.RingSpec(36)},
		{grid.RingSpec(24), grid.MeshSpec(4, 2, 3)},
		{grid.MeshSpec(32, 32), grid.MeshSpec(2, 2, 2, 2, 2, 2)},
	}
	for _, tc := range cases {
		sim, err := Simulate(tc.guest, tc.host)
		if err != nil {
			t.Fatalf("%s -> %s: %v", tc.guest, tc.host, err)
		}
		want := 0
		sim.From.VisitEdges(func(a, b grid.Node) {
			if d := sim.To.Distance(sim.nodeMap(a.Clone()), sim.nodeMap(b.Clone())); d > want {
				want = d
			}
		})
		if got := sim.Dilation(); got != want {
			t.Errorf("%s -> %s: batch dilation %d, per-edge walk %d", tc.guest, tc.host, got, want)
		}
	}
}
