package place

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"torusmesh/internal/grid"
)

var update = flag.Bool("update", false, "regenerate the golden search artifact")

// TestGoldenAnnealedSearch pins an annealed search end to end: the
// artifact of
//
//	place -from torus:16x16x16 -to mesh:16x16x16 -pareto -anneal -json f
//
// must match the committed golden file byte for byte. Its six scored
// candidates are proved bijections, so the scoring and every annealing
// seed's load state take netsim's closed form, which the golden file
// (recorded from the routing pass) pins. Regenerate with
//
//	go test ./internal/place -run GoldenAnnealed -update
func TestGoldenAnnealedSearch(t *testing.T) {
	path := filepath.Join("testdata", "anneal-torus16x16x16-mesh16x16x16.golden.json")
	cfg := cliConfig(grid.TorusSpec(16, 16, 16), grid.MeshSpec(16, 16, 16))
	cfg.Anneal = true
	res, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden artifact (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("annealed search artifact differs from %s:\n got: %s\nwant: %s", path, got, want)
	}
}
