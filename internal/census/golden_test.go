package census_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"torusmesh/internal/census"
	"torusmesh/internal/place"
)

var update = flag.Bool("update", false, "regenerate the golden census artifact")

// goldenPath names the committed artifact after the schema version it
// pins, so a version bump forces a new file next to the old name.
func goldenPath() string {
	return filepath.Join("testdata", "census-v4.golden.json")
}

// goldenConfig is a small but full-featured census: metrics, congestion
// and the placement search are all on, so every serialized field of the
// schema appears in the golden artifact.
func goldenConfig() census.Config {
	cfg := richConfig(16, 0)
	cfg.Congestion = true
	cfg.Place, cfg.PlaceSpec = place.CensusFunc(place.Config{
		CapDilation: true,
		Rotations:   true,
		Budget:      32,
		Strategies:  place.DefaultStrategies(),
	})
	return cfg
}

// TestGoldenArtifact pins the census artifact schema: the serialized
// form of a fixed census must match the committed golden file byte for
// byte. If this test fails you changed the artifact encoding — bump
// census.ArtifactVersion (see its version history), regenerate with
//
//	go test ./internal/census -run Golden -update
//
// and commit the new golden under the new version's file name.
func TestGoldenArtifact(t *testing.T) {
	c := mustRun(t, goldenConfig())
	got := encode(t, c)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath()), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", goldenPath(), len(got))
		return
	}
	want, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("missing golden artifact (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("census artifact drifted from %s.\n"+
			"If the schema changed on purpose: bump census.ArtifactVersion, rename the golden for the new version,\n"+
			"and regenerate with `go test ./internal/census -run Golden -update`.\n"+
			"got %d bytes, want %d bytes", goldenPath(), len(got), len(want))
	}
	// The golden also re-decodes under the current schema version.
	dec, err := census.Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("golden artifact does not decode: %v", err)
	}
	if dec.Version != census.ArtifactVersion {
		t.Errorf("golden version %d does not match ArtifactVersion %d", dec.Version, census.ArtifactVersion)
	}
	if !dec.Placed || !dec.Congestion || !dec.Metrics {
		t.Error("golden census should exercise metrics, congestion and placement columns")
	}
	// The golden reflects the histogram top-edge contract: the pair
	// sitting exactly on each strategy's top bucket boundary is in the
	// last bucket, not dropped (shared assertions with
	// TestHistogramTopEdge).
	assertHistogramTopEdges(t, dec)
}

// streamGoldenPath is the NDJSON stream encoding of the same census,
// named after the artifact schema version its header line carries.
func streamGoldenPath() string {
	return filepath.Join("testdata", "census-v4-stream.golden.ndjson")
}

// TestGoldenStream pins the NDJSON stream encoding of goldenConfig's
// census — the header line's field order and every record line — the
// way TestGoldenArtifact pins the JSON document. Regenerate with
//
//	go test ./internal/census -run Golden -update
func TestGoldenStream(t *testing.T) {
	var buf bytes.Buffer
	if err := census.WriteStream(&buf, mustRun(t, goldenConfig())); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	if *update {
		if err := os.WriteFile(streamGoldenPath(), got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", streamGoldenPath(), len(got))
		return
	}
	want, err := os.ReadFile(streamGoldenPath())
	if err != nil {
		t.Fatalf("missing golden stream (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("census stream drifted from %s: got %d bytes, want %d bytes.\n"+
			"If the encoding changed on purpose, bump the version it carries and regenerate with -update.",
			streamGoldenPath(), len(got), len(want))
	}
	// The golden stream reads back as the golden document.
	c, err := census.ReadStream(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("golden stream does not read: %v", err)
	}
	doc, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, c), doc) {
		t.Errorf("golden stream does not read back as %s", goldenPath())
	}
}
