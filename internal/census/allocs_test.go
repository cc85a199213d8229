package census_test

import (
	"testing"

	"torusmesh/internal/census"
	"torusmesh/internal/testmem"
)

// TestRunBytesPerCall: a metrics-and-congestion census of small pairs
// allocates per pair only what the pair needs (its tables, bitset and
// routing tallies). One block-sized 64 KiB rank buffer per pair would
// break the limit several times over.
func TestRunBytesPerCall(t *testing.T) {
	if testmem.RaceEnabled {
		t.Skip("the census pools its edge blocks; the race detector drops pooled items")
	}
	cfg := richConfig(120, 3)
	cfg.Congestion = true
	got := testmem.BytesPerCall(3, func() {
		if _, err := census.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	limit := uint64(24 << 20)
	t.Logf("census.Run at size 120 maxdim 3: %d B/call (limit %d)", got, limit)
	if got > limit {
		t.Errorf("census.Run at size 120 maxdim 3 allocates %d B/call, want <= %d", got, limit)
	}
}
