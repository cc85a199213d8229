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
	}); n != 0 {
		t.Fatalf("anneal counter increments allocate %v/op, want 0", n)
	}
}

// TestAnnealCountersExact: one annealing run moves the process counters
// by exactly its step budget, with every step accounted as accepted or
// rejected — the instrumentation observes the run, it never samples it.
func TestAnnealCountersExact(t *testing.T) {
	guest := grid.Spec{Kind: grid.Torus, Shape: grid.Shape{4, 4}}
	host := grid.Spec{Kind: grid.Mesh, Shape: grid.Shape{4, 4}}
	s, tab, start := annealSearcher(t, guest, host, DefaultAnnealMoves)

	runs0 := annealRuns.Value()
	steps0 := annealSteps.Value()
	acc0 := annealAccepted.Value()
	rej0 := annealRejected.Value()
	const steps = 200
	if _, _, err := s.annealRun(tableEmbedding(t, s, tab), start, steps, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if got := annealRuns.Value() - runs0; got != 1 {
		t.Errorf("runs moved by %d, want 1", got)
	}
	if got := annealSteps.Value() - steps0; got != steps {
		t.Errorf("steps moved by %d, want %d", got, steps)
	}
	acc, rej := annealAccepted.Value()-acc0, annealRejected.Value()-rej0
	if acc+rej != steps {
		t.Errorf("accepted %d + rejected %d = %d, want %d", acc, rej, acc+rej, steps)
	}
}
