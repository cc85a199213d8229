package place

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"torusmesh/internal/core"
	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/netsim"
	"torusmesh/internal/taskgraph"
)

// TestSearchBeatsBaseline pins the repo's acceptance pair: for
// torus(8x2) -> mesh(4x4) the search must find a placement with
// strictly lower peak congestion than the paper baseline at equal or
// better dilation.
func TestSearchBeatsBaseline(t *testing.T) {
	res, err := Search(Config{
		Guest:       grid.TorusSpec(8, 2),
		Host:        grid.MeshSpec(4, 4),
		CapDilation: true,
		Rotations:   true,
		Budget:      96,
		Strategies:  DefaultStrategies(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Peak >= res.Baseline.Peak {
		t.Errorf("best peak %d does not beat baseline peak %d", res.Best.Peak, res.Baseline.Peak)
	}
	if res.Best.Dilation > res.Baseline.Dilation {
		t.Errorf("best dilation %d worse than baseline %d despite cap", res.Best.Dilation, res.Baseline.Dilation)
	}
	if !res.Improved() {
		t.Errorf("Improved() = false for a strictly better candidate")
	}
	if res.BestEmbedding == nil {
		t.Fatal("missing BestEmbedding")
	}
	// The reported costs must be the costs of the returned embedding.
	if err := res.BestEmbedding.Verify(); err != nil {
		t.Fatalf("winning embedding: %v", err)
	}
	if d := res.BestEmbedding.DilationPerNode(); d != res.Best.Dilation {
		t.Errorf("reported dilation %d, embedding measures %d", res.Best.Dilation, d)
	}
	stats, err := netsim.Congestion(netsim.New(res.BestEmbedding.To),
		taskgraph.FromSpec(res.BestEmbedding.From),
		netsim.PlacementFromEmbedding(res.BestEmbedding))
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxLink != res.Best.Peak {
		t.Errorf("reported peak %d, netsim measures %d", res.Best.Peak, stats.MaxLink)
	}
}

// TestSearchDeterministic: repeated searches of the same config must
// produce bit-identical artifacts even though candidate scoring (and
// hence pruning) is scheduled concurrently.
func TestSearchDeterministic(t *testing.T) {
	cfg := Config{
		Guest:      grid.TorusSpec(12, 3),
		Host:       grid.TorusSpec(9, 4),
		Rotations:  true,
		Budget:     64,
		Strategies: DefaultStrategies(),
	}
	var first []byte
	for i := 0; i < 3; i++ {
		res, err := Search(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := res.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Fatalf("run %d produced a different artifact:\n%s\nvs\n%s", i, first, data)
		}
	}
}

// TestArtifactRoundTrip: decode(encode(r)) re-encodes to the same
// bytes, and incompatible versions and trailing data are rejected.
func TestArtifactRoundTrip(t *testing.T) {
	res, err := Search(Config{
		Guest:      grid.MeshSpec(6, 4),
		Host:       grid.MeshSpec(8, 3),
		Budget:     32,
		Strategies: DefaultStrategies(),
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	again, err := dec.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("artifact did not round-trip:\n%s\nvs\n%s", data, again)
	}
	bad := *res
	bad.Version = ArtifactVersion + 1
	badData, err := bad.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(badData)); err == nil {
		t.Error("decode accepted an incompatible artifact version")
	}
	for _, tail := range []string{" \r\n\t", "TRAILING JUNK", "\n" + string(data)} {
		_, err := Decode(strings.NewReader(string(data) + tail))
		if want := strings.TrimSpace(tail) == ""; (err == nil) != want {
			t.Errorf("decode with tail %q: err = %v, want accepted: %v", tail, err, want)
		}
	}
}

// TestTiesGoToBaseline: when nothing strictly beats the paper pick, the
// baseline itself must win (lowest index on equal scores), so reported
// improvements are never scheduling artifacts.
func TestTiesGoToBaseline(t *testing.T) {
	res, err := Search(Config{
		Guest:      grid.RingSpec(16),
		Host:       grid.TorusSpec(4, 4),
		Rotations:  true,
		Strategies: DefaultStrategies(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A ring routes along a Hamiltonian circuit: dilation 1, every
	// link carrying one route. Nothing can do better.
	if res.Baseline.Dilation != 1 || res.Baseline.Peak != 1 {
		t.Fatalf("baseline = d%d/p%d, want 1/1", res.Baseline.Dilation, res.Baseline.Peak)
	}
	if res.Best.Index != 0 {
		t.Errorf("tie broken away from the baseline: best index %d (score %v vs %v)",
			res.Best.Index, res.Best.Score, res.Baseline.Score)
	}
}

// TestCapDilation: with the cap on, the winner can never dilate worse
// than the paper baseline, whatever the objective weights say.
func TestCapDilation(t *testing.T) {
	for _, pair := range [][2]grid.Spec{
		{grid.TorusSpec(8, 2), grid.MeshSpec(4, 4)},
		{grid.MeshSpec(12, 2), grid.TorusSpec(6, 4)},
		{grid.TorusSpec(9, 2, 2), grid.TorusSpec(6, 6)},
	} {
		res, err := Search(Config{
			Guest:       pair[0],
			Host:        pair[1],
			Objective:   Objective{Beta: 1}, // congestion only
			CapDilation: true,
			Rotations:   true,
			Budget:      64,
			Strategies:  DefaultStrategies(),
		})
		if err != nil {
			t.Fatalf("%s -> %s: %v", pair[0], pair[1], err)
		}
		if res.Best.Dilation > res.Baseline.Dilation {
			t.Errorf("%s -> %s: cap violated: best dilation %d > baseline %d",
				pair[0], pair[1], res.Best.Dilation, res.Baseline.Dilation)
		}
		if res.CapDilation != res.Baseline.Dilation {
			t.Errorf("%s -> %s: effective cap %d, want baseline dilation %d",
				pair[0], pair[1], res.CapDilation, res.Baseline.Dilation)
		}
	}
}

// TestEnumerationContract: the baseline is entry 0, entries are unique,
// and the budget truncates the space deterministically.
func TestEnumerationContract(t *testing.T) {
	cfg := Config{
		Guest:      grid.TorusSpec(6, 3, 2),
		Host:       grid.TorusSpec(9, 4),
		Rotations:  true,
		Budget:     10,
		Strategies: DefaultStrategies(),
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	vs, space := enumerate(&cfg)
	if len(vs) != 10 {
		t.Fatalf("budget 10 enumerated %d candidates", len(vs))
	}
	if space <= 10 {
		t.Fatalf("space %d should exceed the budget for this pair", space)
	}
	v0 := vs[0]
	if v0.strategy != 0 || v0.gperm != nil || v0.hperm != nil || v0.grot != nil || v0.hrot != nil {
		t.Fatalf("entry 0 is not the baseline: %+v", v0)
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if seen[v.key()] {
			t.Fatalf("duplicate candidate %s", v.key())
		}
		seen[v.key()] = true
	}
	// The full run records the same numbers.
	res, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates != 10 || res.Space != space {
		t.Errorf("result reports %d/%d, want 10/%d", res.Candidates, res.Space, space)
	}
	// The arithmetic space size must agree with an exhaustive
	// enumeration (generation stops at the budget, the count must not).
	wide := cfg
	wide.Budget = 1 << 20
	vsAll, spaceAll := enumerate(&wide)
	if spaceAll != space || len(vsAll) != space {
		t.Errorf("space formula %d disagrees with exhaustive enumeration %d/%d", space, spaceAll, len(vsAll))
	}
	if len(vsAll) < 10 {
		t.Fatalf("exhaustive enumeration too small: %d", len(vsAll))
	}
	for i, v := range vsAll[:10] {
		if v.key() != vs[i].key() {
			t.Errorf("budget prefix diverges at %d: %s vs %s", i, v.key(), vs[i].key())
		}
	}
	// Same formula-vs-enumeration agreement with mesh sides, where the
	// rotation generator contributes to the space.
	meshCfg := Config{
		Guest:      grid.MeshSpec(6, 4),
		Host:       grid.MeshSpec(8, 3),
		Rotations:  true,
		Budget:     1 << 20,
		Strategies: DefaultStrategies(),
	}
	if err := meshCfg.validate(); err != nil {
		t.Fatal(err)
	}
	vsMesh, spaceMesh := enumerate(&meshCfg)
	if len(vsMesh) != spaceMesh {
		t.Errorf("mesh pair: space formula %d disagrees with exhaustive enumeration %d", spaceMesh, len(vsMesh))
	}
}

// TestMeasureMatchesPerNode: the searcher's measurement, EdgeDilation
// with its compiled host distancer, must agree with the per-node
// reference walk for composite candidates.
func TestMeasureMatchesPerNode(t *testing.T) {
	cfg := Config{
		Guest:      grid.TorusSpec(8, 2),
		Host:       grid.MeshSpec(4, 4),
		Rotations:  true,
		Budget:     32,
		Strategies: DefaultStrategies(),
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	vs, _ := enumerate(&cfg)
	s := newSearcher(&cfg)
	s.rd.Materialize() // as Search does at these sizes
	checked := 0
	for _, v := range vs {
		e, err := buildVariant(&cfg, v)
		if err != nil {
			continue
		}
		dil, avg := e.EdgeDilation(s.rd)
		if want := e.DilationPerNode(); dil != want {
			t.Errorf("%s: fused dilation %d, per-node %d", v.key(), dil, want)
		}
		if want := e.AverageDilationPerNode(); avg != want {
			t.Errorf("%s: fused avg %v, per-node %v", v.key(), avg, want)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d candidates were buildable", checked)
	}
}

// TestConfigValidation rejects the misconfigurations. ValidateSettings
// rejects the pair-independent ones with Search's own error and leaves
// the pair's to Search.
func TestConfigValidation(t *testing.T) {
	good := func() Config {
		return Config{
			Guest:      grid.RingSpec(6),
			Host:       grid.MeshSpec(3, 2),
			Strategies: DefaultStrategies(),
		}
	}
	halfMid := DefaultStrategies()[1]
	halfMid.EmbedMidRot = nil
	cases := []struct {
		name   string
		pair   bool // an error of the pair, not of the settings
		mutate func(*Config)
	}{
		{"size mismatch", true, func(c *Config) { c.Host = grid.MeshSpec(4, 2) }},
		{"no strategies", false, func(c *Config) { c.Strategies = nil }},
		{"anonymous strategy", false, func(c *Config) { c.Strategies = []Strategy{{Embed: core.Embed}} }},
		{"half-set mid", false, func(c *Config) { c.Strategies = []Strategy{halfMid} }},
		{"negative weight", false, func(c *Config) { c.Objective = Objective{Alpha: -1} }},
		{"NaN weight", false, func(c *Config) { c.Objective = Objective{Alpha: math.NaN(), Beta: 1} }},
		{"infinite weight", false, func(c *Config) { c.Objective = Objective{Alpha: 1, Beta: math.Inf(1)} }},
		{"unknown moves", false, func(c *Config) { c.Anneal, c.AnnealMoves = true, "jumble" }},
	}
	for _, tc := range cases {
		cfg := good()
		tc.mutate(&cfg)
		_, err := Search(cfg)
		if err == nil {
			t.Errorf("%s: Search accepted the config", tc.name)
			continue
		}
		settingsErr := cfg.ValidateSettings()
		if tc.pair && settingsErr != nil {
			t.Errorf("%s: ValidateSettings rejected the pair: %v", tc.name, settingsErr)
		}
		if !tc.pair && (settingsErr == nil || settingsErr.Error() != err.Error()) {
			t.Errorf("%s: ValidateSettings says %v, Search says %v", tc.name, settingsErr, err)
		}
	}
	// The zero objective and budget take defaults.
	cfg := good()
	if err := cfg.ValidateSettings(); err != nil {
		t.Fatalf("ValidateSettings rejected the defaults: %v", err)
	}
	res, err := Search(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != DefaultObjective() {
		t.Errorf("zero objective not defaulted: %+v", res.Objective)
	}
	if res.Budget != DefaultBudget {
		t.Errorf("zero budget not defaulted: %d", res.Budget)
	}
}

// TestRotationInvariance documents why the torus generator is skipped:
// rotating a torus host is an automorphism that commutes with
// dimension-ordered routing, so dilation and congestion are unchanged.
func TestRotationInvariance(t *testing.T) {
	g, h := grid.RingSpec(12), grid.TorusSpec(4, 3)
	base, err := core.Embed(g, h)
	if err != nil {
		t.Fatal(err)
	}
	rot, err := embed.Rotate(h, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	rotated, err := embed.Compose(base, rot)
	if err != nil {
		t.Fatal(err)
	}
	tg := taskgraph.FromSpec(g)
	nw := netsim.New(h)
	s1, err := netsim.Congestion(nw, tg, netsim.PlacementFromEmbedding(base))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := netsim.Congestion(nw, tg, netsim.PlacementFromEmbedding(rotated))
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Errorf("torus rotation changed congestion: %+v vs %+v", s1, s2)
	}
	if d1, d2 := base.DilationPerNode(), rotated.DilationPerNode(); d1 != d2 {
		t.Errorf("torus rotation changed dilation: %d vs %d", d1, d2)
	}
}

// TestBrokenStrategyIsDiscarded: strategies are caller-injected, so a
// construction that returns a non-injective or out-of-range embedding
// must be counted and skipped — never panic the distance kernels or
// fail the search (only the baseline is load-bearing).
func TestBrokenStrategyIsDiscarded(t *testing.T) {
	g, h := grid.TorusSpec(8, 2), grid.MeshSpec(4, 4)
	n := g.Size()
	collapse := make([]int, n) // every node onto host rank 0: not injective
	outOfRange := make([]int, n)
	for i := range outOfRange {
		outOfRange[i] = n + i
	}
	broken := func(table []int) EmbedFunc {
		return func(gs, hs grid.Spec) (*embed.Embedding, error) {
			if !gs.Shape.Equal(g.Shape) || !hs.Shape.Equal(h.Shape) {
				// Permuted variants: refuse, so only the identity
				// variant exercises the broken table.
				return nil, fmt.Errorf("broken strategy only handles the base pair")
			}
			return embed.FromTable(gs, hs, "broken", 0, table)
		}
	}
	for name, table := range map[string][]int{"collapsing": collapse, "out-of-range": outOfRange} {
		res, err := Search(Config{
			Guest:  g,
			Host:   h,
			Budget: 16,
			Strategies: []Strategy{
				DefaultStrategies()[0],
				{Name: "bad", Embed: broken(table)},
			},
		})
		if err != nil {
			t.Fatalf("%s: search failed instead of discarding the broken candidate: %v", name, err)
		}
		if res.Invalid == 0 {
			t.Errorf("%s: broken candidate was not counted invalid", name)
		}
		if res.Best.Strategy == "bad" {
			t.Errorf("%s: a broken candidate won", name)
		}
		if err := res.BestEmbedding.Verify(); err != nil {
			t.Errorf("%s: winner does not verify: %v", name, err)
		}
	}
}

// TestParetoFront pins the acceptance pair torus(12x3) -> torus(9x4):
// the front must hold at least two mutually non-dominated embeddings,
// the scalarized winner must be a member of the front, and the front
// must be sorted by cost.
func TestParetoFront(t *testing.T) {
	res, err := Search(Config{
		Guest:       grid.TorusSpec(12, 3),
		Host:        grid.TorusSpec(9, 4),
		CapDilation: true,
		Rotations:   true,
		Budget:      96,
		Strategies:  DefaultStrategies(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) < 2 {
		t.Fatalf("front has %d member(s), want >= 2: %+v", len(res.Front), res.Front)
	}
	for i, a := range res.Front {
		for j, b := range res.Front {
			if i == j {
				continue
			}
			if a.dominates(b.Costs) {
				t.Errorf("front member %d (d%d p%d a%g) dominates member %d (d%d p%d a%g)",
					a.Index, a.Dilation, a.Peak, a.AvgLink, b.Index, b.Dilation, b.Peak, b.AvgLink)
			}
			if a.same(b.Costs) {
				t.Errorf("front members %d and %d carry identical cost vectors", a.Index, b.Index)
			}
		}
		if i > 0 {
			p := res.Front[i-1]
			if a.Dilation < p.Dilation {
				t.Errorf("front not sorted by dilation at %d", i)
			}
		}
	}
	member := false
	for _, c := range res.Front {
		if c.Index == res.Best.Index {
			if !c.same(res.Best.Costs) {
				t.Errorf("best diverges from its front entry: %+v vs %+v", res.Best, c)
			}
			member = true
		}
	}
	if !member {
		t.Errorf("best (index %d) is not a member of the front", res.Best.Index)
	}
	// The winner's score is the minimum over the front, ties to the
	// lowest index.
	for _, c := range res.Front {
		if c.Score < res.Best.Score || (c.Score == res.Best.Score && c.Index < res.Best.Index) {
			t.Errorf("front member %d (score %g) beats the reported best %d (score %g)",
				c.Index, c.Score, res.Best.Index, res.Best.Score)
		}
	}
}

// TestFrontDeterministic: the front (and hence the artifact) must be
// bit-identical across repeated runs and across GOMAXPROCS settings,
// even though scoring and pruning are scheduled concurrently.
func TestFrontDeterministic(t *testing.T) {
	cfg := Config{
		Guest:      grid.MeshSpec(6, 4),
		Host:       grid.MeshSpec(8, 3),
		Rotations:  true,
		Anneal:     true,
		Budget:     64,
		Strategies: DefaultStrategies(),
	}
	encode := func() []byte {
		res, err := Search(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data, err := res.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := encode()
	for i := 0; i < 2; i++ {
		if got := encode(); !bytes.Equal(first, got) {
			t.Fatalf("run %d produced a different artifact:\n%s\nvs\n%s", i, first, got)
		}
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	if got := encode(); !bytes.Equal(first, got) {
		t.Fatalf("GOMAXPROCS=1 produced a different artifact:\n%s\nvs\n%s", first, got)
	}
	runtime.GOMAXPROCS(2)
	if got := encode(); !bytes.Equal(first, got) {
		t.Fatalf("GOMAXPROCS=2 produced a different artifact:\n%s\nvs\n%s", first, got)
	}
}

// TestCachedBuildMatchesReference: the searcher's cached build path —
// one base construction per key, host symmetries post-composed onto
// it — must produce embeddings rank-identical to the uncached
// reference builder for every variant of a pair.
func TestCachedBuildMatchesReference(t *testing.T) {
	cfg := Config{
		Guest:      grid.TorusSpec(8, 2),
		Host:       grid.MeshSpec(4, 4),
		Rotations:  true,
		Budget:     1 << 20,
		Strategies: DefaultStrategies(),
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	vs, _ := enumerate(&cfg)
	s := newSearcher(&cfg)
	built := 0
	for _, v := range vs {
		want, refErr := buildVariant(&cfg, v)
		got, cacheErr := s.build(v)
		if (refErr == nil) != (cacheErr == nil) {
			t.Fatalf("%s: reference err %v, cached err %v", v.key(), refErr, cacheErr)
		}
		if refErr != nil {
			continue
		}
		wt, gt := want.Table(), got.Table()
		for i := range wt {
			if wt[i] != gt[i] {
				t.Fatalf("%s: cached table diverges at %d: %d vs %d", v.key(), i, gt[i], wt[i])
			}
		}
		if want.Strategy != got.Strategy {
			t.Errorf("%s: strategy chain %q vs %q", v.key(), got.Strategy, want.Strategy)
		}
		built++
	}
	if built < 10 {
		t.Fatalf("only %d variants were buildable", built)
	}
	// The cache must actually share constructions: the 4x4 host's full
	// permutation group targets one permuted shape per guest variant,
	// so there are far fewer bases than variants.
	if len(s.bases) >= built {
		t.Errorf("cache held %d bases for %d built variants — no sharing", len(s.bases), built)
	}
}

// TestMidRotCandidates: the intermediate-rotation generator enumerates
// genuinely new prime-refinement embeddings, and they are buildable,
// valid candidates.
func TestMidRotCandidates(t *testing.T) {
	cfg := Config{
		Guest:      grid.TorusSpec(8, 2),
		Host:       grid.MeshSpec(4, 4),
		Budget:     1 << 20,
		Strategies: DefaultStrategies(),
	}
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	vs, space := enumerate(&cfg)
	if len(vs) != space {
		t.Fatalf("exhaustive enumeration %d disagrees with space %d", len(vs), space)
	}
	plain, err := buildVariant(&cfg, variantSpec{strategy: 1})
	if err != nil {
		t.Fatal(err)
	}
	plainT := plain.Table()
	s := newSearcher(&cfg)
	seen, fresh := 0, 0
	for _, v := range vs {
		if v.midrot == nil {
			continue
		}
		seen++
		e, err := s.build(v)
		if err != nil {
			t.Fatalf("%s: %v", v.key(), err)
		}
		if err := e.Verify(); err != nil {
			t.Fatalf("%s: %v", v.key(), err)
		}
		for i, r := range e.Table() {
			if r != plainT[i] {
				fresh++
				break
			}
		}
	}
	// The all-primes intermediate of 16 is 2x2x2x2: one unit rotation
	// per axis for the primes strategy, none for the paper strategy.
	if seen != 4 {
		t.Errorf("enumerated %d mid-rotation variants, want 4", seen)
	}
	if fresh == 0 {
		t.Error("no mid-rotation produced a new embedding")
	}
}

// TestAnnealDominatesSeed: annealed candidates are admitted only when
// they strictly dominate their seed — so the pass can never emit a
// point its seed dominates, and a deliberately bad baseline must be
// strictly improved on every cost.
func TestAnnealDominatesSeed(t *testing.T) {
	g, h := grid.RingSpec(16), grid.TorusSpec(4, 4)
	n := g.Size()
	tab := make([]int, n)
	for i := range tab {
		tab[i] = (i * 5) % n // a congestion-hostile bijection
	}
	scramble := func(gs, hs grid.Spec) (*embed.Embedding, error) {
		if !gs.Shape.Equal(g.Shape) || !hs.Shape.Equal(h.Shape) {
			return nil, fmt.Errorf("scramble only handles the base pair")
		}
		return embed.FromTable(gs, hs, "scramble", 0, tab)
	}
	res, err := Search(Config{
		Guest:      g,
		Host:       h,
		Anneal:     true,
		Budget:     8,
		Strategies: []Strategy{{Name: "scramble", Embed: scramble}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Annealed == 0 {
		t.Fatal("no annealing runs on a small pair with Anneal set")
	}
	if res.AnnealWins == 0 {
		t.Fatalf("annealing failed to dominate a scrambled ring placement (baseline d%d p%d)",
			res.Baseline.Dilation, res.Baseline.Peak)
	}
	byIndex := map[int]Candidate{res.Baseline.Index: res.Baseline}
	for _, c := range res.Front {
		byIndex[c.Index] = c
	}
	for _, c := range res.Front {
		if !c.Annealed {
			continue
		}
		seed, ok := byIndex[c.AnnealedFrom]
		if ok && seed.dominates(c.Costs) {
			t.Errorf("annealed candidate %d is dominated by its seed %d", c.Index, c.AnnealedFrom)
		}
		if c.Dilation > res.Baseline.Dilation || c.Peak > res.Baseline.Peak {
			t.Errorf("annealed candidate %d (d%d p%d) worse than its scrambled baseline (d%d p%d)",
				c.Index, c.Dilation, c.Peak, res.Baseline.Dilation, res.Baseline.Peak)
		}
	}
	if res.BestEmbedding == nil {
		t.Fatal("missing BestEmbedding")
	}
	if err := res.BestEmbedding.Verify(); err != nil {
		t.Fatalf("annealed winner does not verify: %v", err)
	}
	if d := res.BestEmbedding.DilationPerNode(); d != res.Best.Dilation {
		t.Errorf("reported dilation %d, embedding measures %d", res.Best.Dilation, d)
	}
	// The annealing pass is deterministic: same config, same bytes.
	again, err := Search(Config{
		Guest:      g,
		Host:       h,
		Anneal:     true,
		Budget:     8,
		Strategies: []Strategy{{Name: "scramble", Embed: scramble}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := res.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	b, err := again.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("annealing is not deterministic:\n%s\nvs\n%s", a, b)
	}
	// A different seed is a different (still deterministic) search and
	// is recorded in the artifact.
	if res.Seed == 0 {
		t.Error("effective seed not recorded")
	}
}

// TestAnnealDominatingTie: the annealing best-visited tracker must
// advance on Pareto dominance at a tied score — a zero-weighted cost
// (avg-link under the default objective) ties the score but still
// dominates, and the admission gate accepts exactly that — and the
// pass must win under an objective that zero-weights the costs it
// improves.
func TestAnnealDominatingTie(t *testing.T) {
	a := Costs{Dilation: 3, Peak: 2, AvgLink: 1.5, Score: 5}
	b := Costs{Dilation: 3, Peak: 2, AvgLink: 1.2, Score: 5} // same score, better avg-link
	if !b.dominates(a) {
		t.Error("a dominating tie was not recognized")
	}
	if a.dominates(b) || a.dominates(a) {
		t.Error("dominance is not strict")
	}
	worse := Costs{Dilation: 2, Peak: 3, AvgLink: 1.2, Score: 5}
	if worse.dominates(a) || a.dominates(worse) {
		t.Error("incomparable vectors reported as dominated")
	}
	// Peak-only objective: dilation and avg-link are zero-weighted, so
	// annealing wins must be possible regardless.
	g, h := grid.RingSpec(16), grid.TorusSpec(4, 4)
	n := g.Size()
	tab := make([]int, n)
	for i := range tab {
		tab[i] = (i * 5) % n
	}
	scramble := func(gs, hs grid.Spec) (*embed.Embedding, error) {
		if !gs.Shape.Equal(g.Shape) || !hs.Shape.Equal(h.Shape) {
			return nil, fmt.Errorf("scramble only handles the base pair")
		}
		return embed.FromTable(gs, hs, "scramble", 0, tab)
	}
	res, err := Search(Config{
		Guest:      g,
		Host:       h,
		Anneal:     true,
		Budget:     4,
		Objective:  Objective{Beta: 1},
		Strategies: []Strategy{{Name: "scramble", Embed: scramble}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AnnealWins == 0 {
		t.Error("annealing failed to win under a peak-only objective")
	}
	for _, c := range res.Front {
		if c.Annealed && res.Baseline.dominates(c.Costs) {
			t.Errorf("annealed front member %d dominated by the baseline", c.Index)
		}
	}
}
