package place

import (
	"math/rand"
	"testing"

	"torusmesh/internal/grid"
)

// TestAnnealCounterAllocs gates the per-step instrumentation pattern:
// every annealing-path increment must be a zero-alloc atomic add, or
// the hot loop starts paying for its own observability.
func TestAnnealCounterAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(1000, func() {
		annealSteps.Inc()
		annealAccepted.Inc()
		annealRejected.Inc()
		annealBounded.Inc()
	}); n != 0 {
		t.Fatalf("anneal counter increments allocate %v/op, want 0", n)
	}
}

// TestAnnealCountersExact: one annealing run moves the process counters
// by exactly its step budget, with every step accounted as accepted or
// rejected, and the moves the dilation bound rejected among the
// rejected ones — the instrumentation observes the run, it never
// samples it. The run starts from the paper embedding, so the bound
// rejects some of its moves.
func TestAnnealCountersExact(t *testing.T) {
	guest := grid.Spec{Kind: grid.Torus, Shape: grid.Shape{4, 4}}
	host := grid.Spec{Kind: grid.Mesh, Shape: grid.Shape{4, 4}}
	s, _, _ := annealSearcher(t, guest, host, DefaultAnnealMoves)
	tab, start := paperTable(t, s)

	runs0 := annealRuns.Value()
	steps0 := annealSteps.Value()
	acc0 := annealAccepted.Value()
	rej0 := annealRejected.Value()
	bnd0 := annealBounded.Value()
	const steps = 200
	out := s.annealRun(tableEmbedding(t, s, tab), start, steps, rand.New(rand.NewSource(1)))
	if out.err != nil {
		t.Fatal(out.err)
	}
	bounded := out.bounded
	if got := annealRuns.Value() - runs0; got != 1 {
		t.Errorf("runs moved by %d, want 1", got)
	}
	if got := annealSteps.Value() - steps0; got != steps {
		t.Errorf("steps moved by %d, want %d", got, steps)
	}
	acc, rej, bnd := annealAccepted.Value()-acc0, annealRejected.Value()-rej0, annealBounded.Value()-bnd0
	if acc+rej != steps {
		t.Errorf("accepted %d + rejected %d = %d, want %d", acc, rej, acc+rej, steps)
	}
	if bnd == 0 || bnd > rej || bnd != int64(bounded) {
		t.Errorf("bounded moved by %d, want the run's %d, more than 0 and at most the %d rejected", bnd, bounded, rej)
	}
}

// TestAnnealRevalidatesBoundedSteps: a run of 2·4096+1 steps re-validates
// its incremental costs exactly twice, counting the steps the dilation
// bound rejected without routing. The paper embedding of the pair is
// the run's only seed, so most steps are bound-rejected.
func TestAnnealRevalidatesBoundedSteps(t *testing.T) {
	reval0 := annealRevalidations.Value()
	res, err := Search(Config{
		Guest:       grid.TorusSpec(16, 16),
		Host:        grid.MeshSpec(16, 16),
		Budget:      1,
		Anneal:      true,
		AnnealSteps: 2*annealRevalidateEvery + 1,
		Strategies:  DefaultStrategies(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := annealRevalidations.Value() - reval0; got != 2 {
		t.Errorf("revalidations moved by %d, want 2", got)
	}
	if len(res.AnnealRuns) != 1 || res.AnnealRuns[0].Bounded == 0 {
		t.Errorf("anneal runs %+v: want one run with bound-rejected moves", res.AnnealRuns)
	}
}
