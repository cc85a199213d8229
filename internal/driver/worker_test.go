package driver_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"torusmesh/internal/census"
	"torusmesh/internal/driver"
	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
)

// TestInProcessEmitFailure: when emit fails part-way through a shard,
// InProcess returns that error, emit is never called again, and the
// census stops evaluating pairs instead of finishing the shard. The run
// has several census workers, so one worker records the failure while
// the others poll for it — run it under -race.
func TestInProcessEmitFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := template(60, 0)
	base := cfg.Embed
	var evaluated atomic.Int64
	cfg.Embed = func(g, h grid.Spec) (*embed.Embedding, error) {
		evaluated.Add(1)
		return base(g, h)
	}
	cfg.Shards = 1
	total := len(cfg.Shapes) * len(cfg.Shapes) * 4 // both kinds on each side
	sinkFull := errors.New("sink full")
	emitted := 0 // census serializes emit calls
	err := driver.InProcess{}.Run(context.Background(), driver.Job{Config: cfg, Shards: 1},
		func(census.PairResult) error {
			if emitted++; emitted > 3 {
				return sinkFull
			}
			return nil
		})
	if !errors.Is(err, sinkFull) {
		t.Fatalf("Run returned %v, want the emit error", err)
	}
	if emitted != 4 {
		t.Errorf("emit called %d times, want 4: no record after the failing one", emitted)
	}
	if n := evaluated.Load(); n >= int64(total) {
		t.Errorf("evaluated %d of %d pairs: the failure did not interrupt the census", n, total)
	}
}
