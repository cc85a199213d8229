package place

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"torusmesh/internal/grid"
)

// TestClockInjection proves Config.Clock substitutes the wall clock
// behind Result.Elapsed and the per-run annealing timings: with a
// stepping fake, Elapsed spans exactly the first-to-last clock reads
// and every AnnealRuns duration is a whole number of ticks. A run's
// move loop lies strictly inside it: the run reads the clock once
// before the loop's first read and once after its last. The fake must
// be goroutine-safe — annealing runs read it from par.Blocks.
func TestClockInjection(t *testing.T) {
	const tick = time.Minute
	var reads atomic.Int64
	res, err := Search(clockConfig(&reads, tick))
	if err != nil {
		t.Fatal(err)
	}
	// Search's start read is the first, its Elapsed read the last.
	want := time.Duration(reads.Load()-1) * tick
	if res.Elapsed != want {
		t.Errorf("Elapsed = %v, want %v (%d clock reads)", res.Elapsed, want, reads.Load())
	}
	if len(res.AnnealRuns) == 0 {
		t.Fatal("no annealing runs recorded")
	}
	for _, ar := range res.AnnealRuns {
		if ar.Elapsed <= 0 || ar.Elapsed%tick != 0 {
			t.Errorf("anneal seed %d: Elapsed = %v, not a positive tick multiple", ar.SeedIndex, ar.Elapsed)
		}
		if ar.Moves <= 0 || ar.Moves%tick != 0 || ar.Elapsed-ar.Moves < 2*tick {
			t.Errorf("anneal seed %d: Moves = %v in Elapsed = %v, want a positive tick multiple at least two ticks shorter", ar.SeedIndex, ar.Moves, ar.Elapsed)
		}
	}
}

// TestAnnealMoveLoopClock pins AnnealRunStat.Moves to the move loop's
// own two clock reads: on one worker the runs read the clock in turn,
// so each run's loop spans exactly one tick of the stepping fake, and
// its Elapsed exactly three — the read before the seed rebuild, the
// loop's two, and the read after the final re-measurement.
func TestAnnealMoveLoopClock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const tick = time.Second
	var reads atomic.Int64
	res, err := Search(clockConfig(&reads, tick))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AnnealRuns) == 0 {
		t.Fatal("no annealing runs recorded")
	}
	for _, ar := range res.AnnealRuns {
		if ar.Moves != tick || ar.Elapsed != 3*tick {
			t.Errorf("anneal seed %d: Moves = %v and Elapsed = %v, want %v and %v", ar.SeedIndex, ar.Moves, ar.Elapsed, tick, 3*tick)
		}
	}
}

// clockConfig is an annealed search of a small pair whose clock steps
// by tick on every read, counted in reads.
func clockConfig(reads *atomic.Int64, tick time.Duration) Config {
	base := time.Unix(0, 0)
	return Config{
		Guest:       grid.TorusSpec(8, 2),
		Host:        grid.MeshSpec(4, 4),
		Budget:      8,
		Anneal:      true,
		AnnealSteps: 64,
		Strategies:  DefaultStrategies(),
		Clock: func() time.Time {
			return base.Add(time.Duration(reads.Add(1)) * tick)
		},
	}
}
