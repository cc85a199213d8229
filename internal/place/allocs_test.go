package place

import (
	"testing"

	"torusmesh/internal/grid"
	"torusmesh/internal/testmem"
)

// TestSearchBytesPerCall: a default search of a 16-node pair allocates
// its candidates' tables and routing state. A few block-sized 64 KiB
// buffers per search would break the limit.
func TestSearchBytesPerCall(t *testing.T) {
	if testmem.RaceEnabled {
		t.Skip("the search pools its edge blocks; the race detector drops pooled items")
	}
	cfg := cliConfig(grid.TorusSpec(8, 2), grid.MeshSpec(4, 4))
	got := testmem.BytesPerCall(20, func() {
		if _, err := Search(cfg); err != nil {
			t.Fatal(err)
		}
	})
	limit := uint64(256 << 10)
	t.Logf("Search of %s -> %s: %d B/call (limit %d)", cfg.Guest, cfg.Host, got, limit)
	if got > limit {
		t.Errorf("Search of %s -> %s allocates %d B/call, want <= %d", cfg.Guest, cfg.Host, got, limit)
	}
}
