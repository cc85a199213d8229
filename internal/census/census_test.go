package census_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"torusmesh/internal/catalog"
	"torusmesh/internal/census"
	"torusmesh/internal/core"
	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/obs"
)

// richConfig is the standard metrics-on census of size n.
func richConfig(n, maxDim int) census.Config {
	return census.Config{
		Size:    n,
		MaxDim:  maxDim,
		Shapes:  catalog.CanonicalShapesOfSize(n, maxDim),
		Metrics: true,
		Embed:   core.Embed,
	}
}

func mustRun(t *testing.T, cfg census.Config) *census.Census {
	t.Helper()
	c, err := census.Run(cfg)
	if err != nil {
		t.Fatalf("Run(%+v): %v", cfg, err)
	}
	return c
}

func encode(t *testing.T, c *census.Census) []byte {
	t.Helper()
	data, err := c.EncodeBytes()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// TestShardMergeBitForBit is the core determinism contract: for several
// (size, shard count) configurations, running every shard separately
// and merging the artifacts reproduces the unsharded census bit for
// bit — including with congestion metrics on, and regardless of the
// order the shards are handed to Merge.
func TestShardMergeBitForBit(t *testing.T) {
	cases := []struct {
		n, maxDim, shards int
		congestion        bool
	}{
		{24, 0, 2, false},
		{36, 0, 3, false},
		{16, 0, 4, true},
		{60, 2, 5, false},
		// More shards than pairs: most shards are empty.
		{4, 0, 20, false},
	}
	for _, tc := range cases {
		cfg := richConfig(tc.n, tc.maxDim)
		cfg.Congestion = tc.congestion
		full := mustRun(t, cfg)
		parts := make([]*census.Census, tc.shards)
		for s := 0; s < tc.shards; s++ {
			scfg := cfg
			scfg.Shard, scfg.Shards = s, tc.shards
			parts[s] = mustRun(t, scfg)
		}
		// Hand shards to Merge in rotated order: order must not matter.
		rotated := append(append([]*census.Census(nil), parts[tc.shards/2:]...), parts[:tc.shards/2]...)
		merged, err := census.Merge(rotated...)
		if err != nil {
			t.Fatalf("n=%d shards=%d: merge: %v", tc.n, tc.shards, err)
		}
		want, got := encode(t, full), encode(t, merged)
		if !bytes.Equal(want, got) {
			t.Errorf("n=%d shards=%d: merged census differs from unsharded census", tc.n, tc.shards)
		}
	}
}

// TestShardPartition checks the partition itself: shard pair counts sum
// to the full space and every shard census reports the same space.
func TestShardPartition(t *testing.T) {
	cfg := richConfig(24, 0)
	full := mustRun(t, cfg)
	total := 0
	for s := 0; s < 3; s++ {
		scfg := cfg
		scfg.Shard, scfg.Shards = s, 3
		c := mustRun(t, scfg)
		total += c.Pairs
		if c.SpacePairs != full.SpacePairs {
			t.Errorf("shard %d: space %d, want %d", s, c.SpacePairs, full.SpacePairs)
		}
		for i := range c.Results {
			if c.Results[i].Index%3 != s {
				t.Errorf("shard %d holds pair %d", s, c.Results[i].Index)
			}
		}
	}
	if total != full.SpacePairs {
		t.Errorf("shards cover %d pairs, want %d", total, full.SpacePairs)
	}
}

// TestJSONRoundTrip checks that an artifact survives encode/decode
// byte-for-byte and that merges of decoded artifacts still reproduce
// the unsharded census.
func TestJSONRoundTrip(t *testing.T) {
	c := mustRun(t, richConfig(36, 0))
	data := encode(t, c)
	back, err := census.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(data, encode(t, back)) {
		t.Error("artifact changed across a decode/encode round trip")
	}
	if back.Pairs != c.Pairs || back.Embeddable != c.Embeddable || len(back.Results) != len(c.Results) {
		t.Errorf("round trip lost data: %d/%d pairs, %d/%d embeddable",
			back.Pairs, c.Pairs, back.Embeddable, c.Embeddable)
	}
}

// TestDecodeRejectsBadArtifacts covers version and structural checks,
// and that only whitespace may follow the document.
func TestDecodeRejectsBadArtifacts(t *testing.T) {
	valid := fmt.Sprintf(`{"version": %d, "shards": 1}`, census.ArtifactVersion)
	if _, err := census.Decode(strings.NewReader(valid + " \r\n\t")); err != nil {
		t.Fatalf("decode rejected a valid document with trailing whitespace: %v", err)
	}
	bad := []struct{ name, doc string }{
		{"wrong version", `{"version": 999, "shards": 1}`},
		{"zero version", `{"shards": 1}`},
		{"invalid shard", fmt.Sprintf(`{"version": %d, "shard": 5, "shards": 2}`, census.ArtifactVersion)},
		{"not json", `not json at all`},
		{"trailing junk", valid + "\nTRAILING JUNK"},
		{"second document", valid + "\n" + valid},
		{"stray delimiter", valid + "]"},
	}
	for _, tc := range bad {
		if _, err := census.Decode(strings.NewReader(tc.doc)); err == nil {
			t.Errorf("%s: decode accepted %q", tc.name, tc.doc)
		}
	}
}

// TestMergeRejectsIncompatible covers every compatibility axis Merge
// validates.
func TestMergeRejectsIncompatible(t *testing.T) {
	cfg := richConfig(24, 0)
	cfg.Shards = 2
	s0 := mustRun(t, cfg)
	cfg.Shard = 1
	s1 := mustRun(t, cfg)

	if _, err := census.Merge(); err == nil {
		t.Error("merge of nothing succeeded")
	}
	if _, err := census.Merge(s0); err == nil {
		t.Error("merge with missing shard succeeded")
	}
	if _, err := census.Merge(s0, s0); err == nil {
		t.Error("merge with duplicate shard succeeded")
	}
	mutations := []struct {
		name string
		mut  func(c *census.Census)
	}{
		{"size", func(c *census.Census) { c.Size = 25 }},
		{"maxdim", func(c *census.Census) { c.MaxDim = 3 }},
		{"version", func(c *census.Census) { c.Version = census.ArtifactVersion + 1 }},
		{"shard count", func(c *census.Census) { c.Shards = 4 }},
		{"metrics flag", func(c *census.Census) { c.Metrics = false }},
		{"congestion flag", func(c *census.Census) { c.Congestion = true }},
		{"placed flag", func(c *census.Census) { c.Placed = true }},
		{"place settings", func(c *census.Census) { c.PlaceSpec = "other-settings" }},
		{"shape list", func(c *census.Census) { c.Shapes[0] = "9x9" }},
		{"pair space", func(c *census.Census) { c.SpacePairs++ }},
	}
	for _, tc := range mutations {
		broken := *s1
		broken.Shapes = append([]string(nil), s1.Shapes...)
		tc.mut(&broken)
		if _, err := census.Merge(s0, &broken); err == nil {
			t.Errorf("merge accepted artifacts with different %s", tc.name)
		}
	}
	// Overlapping results: same shard labelled differently.
	relabelled := *s0
	relabelled.Shard = 1
	if _, err := census.Merge(s0, &relabelled); err == nil {
		t.Error("merge accepted overlapping pair results")
	}
}

// TestMergeOfFullCensusIsIdempotent: a complete unsharded artifact
// merges with itself alone to the identical artifact.
func TestMergeOfFullCensusIsIdempotent(t *testing.T) {
	c := mustRun(t, richConfig(24, 0))
	m, err := census.Merge(c)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !bytes.Equal(encode(t, c), encode(t, m)) {
		t.Error("merging a full census with itself changed it")
	}
}

// TestWriteReadFile exercises the file-level artifact helpers.
func TestWriteReadFile(t *testing.T) {
	c := mustRun(t, richConfig(16, 0))
	path := t.TempDir() + "/census.json"
	if err := c.WriteFile(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := census.ReadFileAny(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(encode(t, c), encode(t, back)) {
		t.Error("artifact changed across a file round trip")
	}
	if _, err := census.ReadFileAny(t.TempDir() + "/missing.json"); err == nil {
		t.Error("reading a missing artifact succeeded")
	}
}

// TestMetricsContent sanity-checks the per-pair measurements of a rich
// census: every embeddable pair has dilation in [1, predicted] and a
// positive average dilation no larger than the max, and with congestion
// on every embeddable pair carries at least one route per link peak.
func TestMetricsContent(t *testing.T) {
	cfg := richConfig(16, 0)
	cfg.Congestion = true
	c := mustRun(t, cfg)
	if c.Embeddable == 0 {
		t.Fatal("census found nothing embeddable")
	}
	for i := range c.Results {
		r := &c.Results[i]
		if r.FailureStage != "" {
			continue
		}
		if r.Dilation < 1 {
			t.Errorf("pair %d (%s -> %s): dilation %d", r.Index, r.Guest, r.Host, r.Dilation)
		}
		if r.Predicted > 0 && r.Dilation > r.Predicted {
			t.Errorf("pair %d: dilation %d exceeds guarantee %d yet was not failed", r.Index, r.Dilation, r.Predicted)
		}
		if r.AvgDilation <= 0 || r.AvgDilation > float64(r.Dilation) {
			t.Errorf("pair %d: average dilation %f vs max %d", r.Index, r.AvgDilation, r.Dilation)
		}
		if r.Congestion < 1 {
			t.Errorf("pair %d: peak congestion %d", r.Index, r.Congestion)
		}
	}
	total := 0
	for _, h := range c.Histograms {
		for _, count := range h.Dilation {
			total += count
		}
	}
	if total != c.Embeddable {
		t.Errorf("dilation histogram covers %d pairs, want %d", total, c.Embeddable)
	}
}

// TestEmbedModeCoverage: the size-16 pair space has 5 canonical shapes
// (16, 8x2, 4x4, 4x2x2, 2x2x2x2) and 100 ordered pairs, every one
// embeddable — power-of-two families are total: each pair is
// expandable, reducible or square (hypercube glue) — and the
// per-strategy counts sum to the embeddable count.
func TestEmbedModeCoverage(t *testing.T) {
	c := mustRun(t, census.Config{Size: 16, Shapes: catalog.CanonicalShapesOfSize(16, 0), Embed: core.Embed})
	if len(c.Shapes) != 5 {
		t.Errorf("census shapes = %d, want 5", len(c.Shapes))
	}
	if c.Pairs != 5*5*4 {
		t.Errorf("census pairs = %d, want 100", c.Pairs)
	}
	if c.Embeddable != c.Pairs {
		t.Errorf("census embeddable = %d of %d; power-of-two families should be total", c.Embeddable, c.Pairs)
	}
	if len(c.ByStrategy) == 0 {
		t.Error("census recorded no strategies")
	}
	total := 0
	for _, n := range c.ByStrategy {
		total += n
	}
	if total != c.Embeddable {
		t.Errorf("strategy counts sum to %d, want %d", total, c.Embeddable)
	}
}

// TestCongestionCensusTables: a congestion census materializes a table
// only for the pairs whose embedding no closed form proves a bijection.
// All 1,600 pairs at size 120 (maxdim 4) are proved, those whose axes
// join one component included, and Verify, the dilation and the
// congestion of a proved bijection need no table, so the census
// materializes none.
func TestCongestionCensusTables(t *testing.T) {
	tables := obs.Default().Counter("embed_tables_materialized_total")
	cfg := richConfig(120, 4)
	cfg.Congestion = true
	before := tables.Value()
	c := mustRun(t, cfg)
	got := tables.Value() - before
	t.Logf("size 120 maxdim 4: %d pairs, %d tables materialized", c.Pairs, got)
	if c.Pairs != 1600 || got != 0 {
		t.Errorf("size 120 maxdim 4: %d pairs materialized %d tables, want 1600 and 0", c.Pairs, got)
	}
}

// TestConfigValidation covers Run's misconfiguration errors.
func TestConfigValidation(t *testing.T) {
	shapes := catalog.CanonicalShapesOfSize(12, 0)
	bad := []struct {
		name string
		cfg  census.Config
	}{
		{"no evaluator", census.Config{Size: 12, Shapes: shapes}},
		{"shard out of range", census.Config{Size: 12, Shapes: shapes, Embed: core.Embed, Shard: 3, Shards: 2}},
		{"negative shard", census.Config{Size: 12, Shapes: shapes, Embed: core.Embed, Shard: -1, Shards: 2}},
		{"shape size mismatch", census.Config{Size: 13, Shapes: shapes, Embed: core.Embed}},
	}
	for _, tc := range bad {
		if _, err := census.Run(tc.cfg); err == nil {
			t.Errorf("%s: Run accepted the config", tc.name)
		}
	}
}

// TestFailureStages drives both failure stages through a sabotaged
// evaluator — torus guests are rejected outright (construction
// failures) and mesh-identity pairs get a deliberately non-injective
// table (verification failures) — and checks the stage split, the
// recorded reasons, and that shard merging still reproduces a census
// containing failures bit for bit.
func TestFailureStages(t *testing.T) {
	sabotage := func(g, h grid.Spec) (*embed.Embedding, error) {
		if g.Kind == grid.Torus {
			return nil, fmt.Errorf("sabotage: torus guests rejected")
		}
		if h.Kind == grid.Mesh && g.Shape.Equal(h.Shape) {
			// Every guest node maps to host rank 0: caught by the
			// injectivity scan.
			return embed.FromTable(g, h, "sabotage", 0, make([]int, g.Size()))
		}
		return core.Embed(g, h)
	}
	cfg := richConfig(12, 0)
	cfg.Embed = sabotage
	c := mustRun(t, cfg)
	if c.ConstructFailures == 0 || c.VerifyFailures == 0 {
		t.Fatalf("sabotage produced %d construct and %d verify failures; want both nonzero",
			c.ConstructFailures, c.VerifyFailures)
	}
	if c.Embeddable+c.ConstructFailures+c.VerifyFailures != c.Pairs {
		t.Errorf("stage counts %d+%d+%d do not cover %d pairs",
			c.Embeddable, c.ConstructFailures, c.VerifyFailures, c.Pairs)
	}
	tally := 0
	for _, count := range c.ByStrategy {
		tally += count
	}
	if tally != c.Embeddable {
		t.Errorf("ByStrategy tallies %d pairs, want the %d embeddable ones", tally, c.Embeddable)
	}
	for i := range c.Results {
		r := &c.Results[i]
		switch r.FailureStage {
		case census.StageConstruct:
			if !strings.Contains(r.Failure, "torus guests rejected") {
				t.Errorf("pair %d: construction failure reason %q", r.Index, r.Failure)
			}
		case census.StageVerify:
			if !strings.Contains(r.Failure, "two pre-images") {
				t.Errorf("pair %d: verification failure reason %q", r.Index, r.Failure)
			}
			if r.Strategy != "sabotage" {
				t.Errorf("pair %d: verify failure strategy %q", r.Index, r.Strategy)
			}
		case "":
			if r.Failure != "" {
				t.Errorf("pair %d: failure %q with no stage", r.Index, r.Failure)
			}
		}
	}
	// Failures must survive the shard/merge cycle unchanged.
	parts := make([]*census.Census, 2)
	for s := range parts {
		scfg := cfg
		scfg.Shard, scfg.Shards = s, 2
		parts[s] = mustRun(t, scfg)
	}
	merged, err := census.Merge(parts...)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !bytes.Equal(encode(t, c), encode(t, merged)) {
		t.Error("merged census with failures differs from unsharded census")
	}
}

func TestStrategyKey(t *testing.T) {
	cases := map[string]string{
		"expansion/H_V":          "expansion",
		"square-chain[3]":        "square-chain",
		"f_L":                    "f_L",
		"prime-refinement/π ∘ f": "prime-refinement",
		"":                       "",
		"basic[2]/variant":       "basic",
	}
	for in, want := range cases {
		if got := census.StrategyKey(in); got != want {
			t.Errorf("StrategyKey(%q) = %q, want %q", in, got, want)
		}
	}
}

// BenchmarkCensus360 is the acceptance-scale sweep: size 360 capped at
// four dimensions, metrics on.
func BenchmarkCensus360(b *testing.B) {
	shapes := catalog.CanonicalShapesOfSize(360, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := census.Run(census.Config{
			Size: 360, MaxDim: 4, Shapes: shapes, Metrics: true, Embed: core.Embed,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMergeNamesOffendingShards: merge diagnostics must name which
// shard indices are missing or duplicated, not just how many.
func TestMergeNamesOffendingShards(t *testing.T) {
	cfg := richConfig(24, 0)
	cfg.Shards = 4
	parts := make([]*census.Census, 4)
	for s := 0; s < 4; s++ {
		scfg := cfg
		scfg.Shard = s
		parts[s] = mustRun(t, scfg)
	}
	_, err := census.Merge(parts[0], parts[3])
	if err == nil {
		t.Fatal("merge with missing shards succeeded")
	}
	if !strings.Contains(err.Error(), "1, 2") {
		t.Errorf("missing-shard error does not name shards 1 and 2: %v", err)
	}
	_, err = census.Merge(parts[0], parts[1], parts[2], parts[3], parts[1], parts[2])
	if err == nil {
		t.Fatal("merge with duplicated shards succeeded")
	}
	if !strings.Contains(err.Error(), "1, 2") {
		t.Errorf("duplicate-shard error does not name shards 1 and 2: %v", err)
	}
}

// TestPlaceColumn: a placement census records the search winner next to
// the baseline columns, and search failures land in the summary's Error
// field without failing the pair.
func TestPlaceColumn(t *testing.T) {
	cfg := richConfig(16, 0)
	cfg.Congestion = true
	cfg.PlaceSpec = "stub-settings"
	cfg.Place = func(g, h grid.Spec) (*census.PlaceSummary, error) {
		if g.Kind == grid.Torus {
			return nil, fmt.Errorf("synthetic failure for %s", g)
		}
		return &census.PlaceSummary{Desc: "stub", Dilation: 1, Peak: 1, Score: 2}, nil
	}
	c := mustRun(t, cfg)
	if !c.Placed {
		t.Fatal("census did not record the placed flag")
	}
	summaries, errors := 0, 0
	for i := range c.Results {
		r := &c.Results[i]
		if r.FailureStage != "" {
			if r.Place != nil {
				t.Errorf("failed pair %s -> %s has a placement", r.Guest, r.Host)
			}
			continue
		}
		if r.Place == nil {
			t.Errorf("embeddable pair %s -> %s has no placement", r.Guest, r.Host)
			continue
		}
		if r.Place.Error != "" {
			errors++
		} else {
			summaries++
		}
	}
	if summaries == 0 || errors == 0 {
		t.Errorf("want both summaries and recorded errors, got %d/%d", summaries, errors)
	}

	// Placement requires the congestion baseline, and the search
	// settings must be recorded so Merge can compare them.
	bad := richConfig(16, 0)
	bad.Place, bad.PlaceSpec = cfg.Place, cfg.PlaceSpec
	if _, err := census.Run(bad); err == nil {
		t.Error("placement census without congestion accepted")
	}
	noSpec := richConfig(16, 0)
	noSpec.Congestion = true
	noSpec.Place = cfg.Place
	if _, err := census.Run(noSpec); err == nil {
		t.Error("placement census without a PlaceSpec accepted")
	}
}

// TestShardMergeWithPlacement: the bit-for-bit merge property must hold
// for placement censuses too (the Placed flag and per-pair summaries
// travel through Merge).
func TestShardMergeWithPlacement(t *testing.T) {
	cfg := richConfig(16, 0)
	cfg.Congestion = true
	cfg.PlaceSpec = "stub-settings"
	cfg.Place = func(g, h grid.Spec) (*census.PlaceSummary, error) {
		return &census.PlaceSummary{Desc: "stub", Dilation: 1, Peak: g.Dim() + h.Dim(), Score: 2}, nil
	}
	full := mustRun(t, cfg)
	if !full.Placed {
		t.Fatal("census did not record the placed flag")
	}
	parts := make([]*census.Census, 3)
	for s := 0; s < 3; s++ {
		scfg := cfg
		scfg.Shard, scfg.Shards = s, 3
		parts[s] = mustRun(t, scfg)
	}
	merged, err := census.Merge(parts...)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !bytes.Equal(encode(t, full), encode(t, merged)) {
		t.Error("merged placement census differs from the unsharded run")
	}
}
