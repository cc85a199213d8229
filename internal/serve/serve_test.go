package serve

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"torusmesh/internal/census"
	"torusmesh/internal/grid"
	"torusmesh/internal/netsim"
	"torusmesh/internal/place"
	"torusmesh/internal/taskgraph"
)

// fakeClock is a manually advanced clock injected via Config.now: it
// never moves on its own, so durations (uptime, time-to-upgrade,
// latency histograms) are exactly the Advances the test performs —
// which is what pins the /metrics exposition byte-for-byte.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1700000000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testConfig is the small deterministic search settings every serve
// test runs under; searches on 8-node pairs finish in milliseconds.
// The clock is frozen so status snapshots and metric expositions are
// reproducible.
func testConfig() Config {
	return Config{
		Place: place.Config{
			Budget:      16,
			CapDilation: true,
			Rotations:   true,
			Strategies:  place.DefaultStrategies(),
		},
		now: newFakeClock().Now,
	}
}

// refSearch runs the reference batch search for a pair under the test
// settings — the bytes the server must serve bit-for-bit.
func refSearch(t *testing.T, g, h grid.Spec) (*place.Result, []byte) {
	t.Helper()
	cfg := testConfig().Place
	cfg.Guest, cfg.Host = g, h
	res, err := place.Search(cfg)
	if err != nil {
		t.Fatalf("reference search: %v", err)
	}
	raw, err := res.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	return res, raw
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// newHeldServer is newTestServer under testConfig with every background
// search held until release is called. Unheld, the search of a small
// pair can finish before a cold request reads its entry, which then
// answers at the searched tier instead of the baseline tier.
func newHeldServer(t *testing.T) (srv *Server, release func()) {
	t.Helper()
	hold := make(chan struct{})
	cfg := testConfig()
	cfg.searchFn = func(pc place.Config) (*place.Result, error) {
		<-hold
		return place.Search(pc)
	}
	srv = newTestServer(t, cfg)
	release = sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release) // registered after, so run before, the server's Close
	return srv, release
}

// TestNewRejectsBadSettings: settings that would fail every search —
// an unknown anneal move repertoire, a negative objective weight — are
// refused at startup instead of failing each background search.
func TestNewRejectsBadSettings(t *testing.T) {
	for name, mutate := range map[string]func(*place.Config){
		"unknown moves":   func(c *place.Config) { c.Anneal, c.AnnealMoves = true, "jumble" },
		"negative weight": func(c *place.Config) { c.Objective = place.Objective{Alpha: -1, Beta: 1} },
	} {
		cfg := testConfig()
		mutate(&cfg.Place)
		if srv, err := New(cfg); err == nil {
			srv.Close()
			t.Errorf("%s: New accepted %+v", name, cfg.Place)
		}
	}
}

// TestColdBaselineThenSearched is the serving contract end to end: a
// cold request answers at the baseline tier without waiting, the
// baseline costs equal the search's own Baseline candidate, and once
// the background search lands the same request returns the front with
// artifact bytes bit-identical to the batch search's.
func TestColdBaselineThenSearched(t *testing.T) {
	g, h := grid.TorusSpec(4, 2), grid.MeshSpec(4, 2)
	srv, releaseSearch := newHeldServer(t)

	a, err := srv.Place(context.Background(), g, h, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tier != TierBaseline {
		t.Fatalf("cold request served tier %q, want %q", a.Tier, TierBaseline)
	}
	if a.Baseline == nil || a.Result != nil {
		t.Fatalf("baseline tier must carry Baseline and no Result: %+v", a)
	}

	releaseSearch()
	srv.Flush()
	ref, refBytes := refSearch(t, g, h)
	if !reflect.DeepEqual(*a.Baseline, ref.Baseline) {
		t.Errorf("baseline tier disagrees with the search's baseline:\n tier:   %+v\n search: %+v",
			*a.Baseline, ref.Baseline)
	}

	b, err := srv.Place(context.Background(), g, h, false)
	if err != nil {
		t.Fatal(err)
	}
	if b.Tier != TierSearched || b.State != SearchDone {
		t.Fatalf("warm request served tier %q state %v, want searched/done", b.Tier, b.State)
	}
	if !bytes.Equal(b.Artifact, refBytes) {
		t.Fatalf("served artifact differs from the batch search artifact (%d vs %d bytes)",
			len(b.Artifact), len(refBytes))
	}

	st := srv.Status()
	if st.Pairs != 1 || st.Searched != 1 || st.Misses != 1 || st.Hits != 1 || st.BaselineServed != 1 {
		t.Fatalf("status counters off: %+v", st)
	}
}

// TestSingleflightConcurrent pins the dedup invariant under -race: N
// concurrent cold requests for one canonical pair — under different
// labelings — run exactly one search, and everyone receives identical
// artifact bytes.
func TestSingleflightConcurrent(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	cfg := testConfig()
	cfg.searchFn = func(pc place.Config) (*place.Result, error) {
		calls.Add(1)
		<-release
		return place.Search(pc)
	}
	srv := newTestServer(t, cfg)

	// Both labelings canonicalize to torus:4x2->mesh:4x2.
	guests := []grid.Spec{grid.TorusSpec(4, 2), grid.TorusSpec(2, 4)}
	host := grid.MeshSpec(4, 2)
	const n = 16
	results := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := srv.Place(context.Background(), guests[i%len(guests)], host, true)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = a.Artifact
		}(i)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("%d concurrent cold requests ran %d searches, want exactly 1", n, got)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("request %d received different artifact bytes", i)
		}
	}
	_, refBytes := refSearch(t, guests[0], host)
	if !bytes.Equal(results[0], refBytes) {
		t.Fatal("concurrent requests' artifact differs from the batch search artifact")
	}
}

// TestWarmCensusParity pins the warm path: a census row pre-seeds a
// search whose artifact is bit-identical to the batch search, the
// census's recorded winner cross-checks clean, and unusable rows are
// skipped.
func TestWarmCensusParity(t *testing.T) {
	g, h := grid.TorusSpec(4, 2), grid.MeshSpec(4, 2)
	ref, refBytes := refSearch(t, g, h)
	srv := newTestServer(t, testConfig())

	c := &census.Census{
		Header: census.Header{PlaceSpec: testConfig().Place.Spec()},
		Results: []census.PairResult{
			{Guest: g.String(), Host: h.String(), Place: place.Summary(ref.Best)},
			{Guest: "mesh(4x2)", Host: "mesh(2x4)", Failure: "nope", FailureStage: "construct"},
			{Guest: "torus(2x2x2)", Host: "mesh(8)"}, // no place column
		},
	}
	ws, err := srv.WarmCensus(c)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Queued != 1 || ws.Present != 0 || ws.Skipped != 2 {
		t.Fatalf("warm stats = %+v, want 1 queued / 0 present / 2 skipped", ws)
	}
	srv.Flush()

	got, err := srv.Artifact(g, h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refBytes) {
		t.Fatal("census-warmed artifact differs from the batch search artifact")
	}
	if st := srv.Status(); st.WarmMismatches != 0 || st.WarmQueued != 1 {
		t.Fatalf("status = %+v, want warm_queued 1 and no mismatches", st)
	}

	// Re-warming finds everything present.
	ws, err = srv.WarmCensus(c)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Queued != 0 || ws.Present != 1 {
		t.Fatalf("re-warm stats = %+v, want 0 queued / 1 present", ws)
	}
}

// TestWarmCensusMismatchDetected: a census claiming a different winner
// than the deterministic search produces is counted (it can only mean
// a bug or a doctored artifact).
func TestWarmCensusMismatchDetected(t *testing.T) {
	g, h := grid.TorusSpec(4, 2), grid.MeshSpec(4, 2)
	ref, _ := refSearch(t, g, h)
	srv := newTestServer(t, testConfig())

	doctored := place.Summary(ref.Best)
	doctored.Dilation++
	c := &census.Census{
		Header: census.Header{PlaceSpec: testConfig().Place.Spec()},
		Results: []census.PairResult{
			{Guest: g.String(), Host: h.String(), Place: doctored},
		},
	}
	if _, err := srv.WarmCensus(c); err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	if st := srv.Status(); st.WarmMismatches != 1 {
		t.Fatalf("warm_mismatches = %d, want 1", st.WarmMismatches)
	}
}

// TestWarmCensusForeignSpecNotCrossChecked: a census searched under
// different settings still seeds pairs (the search re-runs under the
// server's own settings) but its winners are not comparable and must
// not count as mismatches.
func TestWarmCensusForeignSpecNotCrossChecked(t *testing.T) {
	g, h := grid.TorusSpec(4, 2), grid.MeshSpec(4, 2)
	ref, refBytes := refSearch(t, g, h)
	srv := newTestServer(t, testConfig())

	doctored := place.Summary(ref.Best)
	doctored.Peak += 7
	c := &census.Census{
		Header: census.Header{PlaceSpec: "engine=3 objective=9,9,9 budget=1 cap=false rotations=false strategies=other"},
		Results: []census.PairResult{
			{Guest: g.String(), Host: h.String(), Place: doctored},
		},
	}
	if _, err := srv.WarmCensus(c); err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	got, err := srv.Artifact(g, h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refBytes) {
		t.Fatal("foreign-spec warm must still search under the server's own settings")
	}
	if st := srv.Status(); st.WarmMismatches != 0 {
		t.Fatalf("foreign-spec census cross-checked: warm_mismatches = %d", st.WarmMismatches)
	}
}

// TestCachePersistence: a searched front survives a restart via the
// artifact directory — the reloaded entry serves identical bytes with
// zero new searches — and a directory is refused under different
// search settings.
func TestCachePersistence(t *testing.T) {
	g, h := grid.TorusSpec(4, 2), grid.MeshSpec(4, 2)
	dir := t.TempDir()

	cfg := testConfig()
	cfg.CacheDir = dir
	srv1 := newTestServer(t, cfg)
	a, err := srv1.Place(context.Background(), g, h, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tier != TierSearched {
		t.Fatalf("waited request served tier %q", a.Tier)
	}
	srv1.Close()

	var calls atomic.Int32
	cfg2 := testConfig()
	cfg2.CacheDir = dir
	cfg2.searchFn = func(pc place.Config) (*place.Result, error) {
		calls.Add(1)
		return place.Search(pc)
	}
	srv2 := newTestServer(t, cfg2)
	if st := srv2.Status(); st.CacheLoaded != 1 || st.CacheLoadErrors != 0 {
		t.Fatalf("restart status = %+v, want cache_loaded 1", st)
	}
	b, err := srv2.Place(context.Background(), g, h, false)
	if err != nil {
		t.Fatal(err)
	}
	if b.Tier != TierSearched {
		t.Fatalf("restarted server served tier %q, want searched", b.Tier)
	}
	if !bytes.Equal(b.Artifact, a.Artifact) {
		t.Fatal("artifact bytes changed across restart")
	}
	if calls.Load() != 0 {
		t.Fatalf("restart re-ran %d searches for a cached pair", calls.Load())
	}

	// The winner table is rebuilt on demand by exactly one re-search.
	if _, err := srv2.Table(b); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("table rebuild ran %d searches, want 1", calls.Load())
	}
	if _, err := srv2.Table(b); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatal("second table request must hit the memoized table")
	}
	srv2.Close()

	cfg3 := testConfig()
	cfg3.CacheDir = dir
	cfg3.Place.Budget = 32
	if _, err := New(cfg3); err == nil {
		t.Fatal("cache dir reopened under different search settings must fail")
	}
}

// TestCacheSkipsTrailingData: a cached artifact with bytes appended is
// skipped and counted as a load error, so the pair is searched afresh
// instead of serving bytes that differ from the batch search's.
func TestCacheSkipsTrailingData(t *testing.T) {
	g, h := grid.TorusSpec(4, 2), grid.MeshSpec(4, 2)
	dir := t.TempDir()
	cfg := testConfig()
	cfg.CacheDir = dir
	srv1 := newTestServer(t, cfg)
	a, err := srv1.Place(context.Background(), g, h, true)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	path := filepath.Join(dir, fileName(a.Key.String()))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, "TRAILING JUNK"...), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := newTestServer(t, cfg)
	if st := srv2.Status(); st.CacheLoaded != 0 || st.CacheLoadErrors != 1 {
		t.Fatalf("restart status = %+v, want cache_loaded 0 and cache_load_errors 1", st)
	}
	b, err := srv2.Place(context.Background(), g, h, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Artifact, a.Artifact) {
		t.Fatal("re-searched artifact differs from the original")
	}
}

// TestTableDenormalization: the served placement table, translated to
// the caller's labeling, measures exactly the costs the answer
// reports — for both tiers, on a request whose guest labeling is not
// canonical.
func TestTableDenormalization(t *testing.T) {
	g, h := grid.TorusSpec(2, 4), grid.MeshSpec(4, 2) // guest canonicalizes to torus:4x2
	srv, releaseSearch := newHeldServer(t)

	a, err := srv.Place(context.Background(), g, h, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key.Identity() {
		t.Fatal("test needs a non-canonical guest labeling")
	}
	baseTable, err := srv.Table(a)
	if err != nil {
		t.Fatal(err)
	}
	checkTableCosts(t, g, h, baseTable, a.Baseline.Dilation, a.Baseline.Peak)

	releaseSearch()
	srv.Flush()
	b, err := srv.Place(context.Background(), g, h, false)
	if err != nil {
		t.Fatal(err)
	}
	winTable, err := srv.Table(b)
	if err != nil {
		t.Fatal(err)
	}
	checkTableCosts(t, g, h, winTable, b.Result.Best.Dilation, b.Result.Best.Peak)
}

// checkTableCosts measures a placement table on the caller-labeled
// pair and compares against the served costs.
func checkTableCosts(t *testing.T, g, h grid.Spec, table []int, wantDil, wantPeak int) {
	t.Helper()
	stats, err := netsim.Congestion(netsim.New(h), taskgraph.FromSpec(g), table)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxLink != wantPeak {
		t.Errorf("denormalized table peak = %d, served answer says %d", stats.MaxLink, wantPeak)
	}
	dil, rd := 0, h.NewRankDistancer()
	g.VisitEdges(func(a, b grid.Node) {
		if d := rd.Distance(table[g.Shape.Index(a)], table[g.Shape.Index(b)]); d > dil {
			dil = d
		}
	})
	if dil != wantDil {
		t.Errorf("denormalized table dilation = %d, served answer says %d", dil, wantDil)
	}
}

// TestBackpressure: with MaxQueue set, a cold-pair request against a
// full queue is refused with ErrBacklogged (counter-tracked), while
// requests for already-known pairs still answer.
func TestBackpressure(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	cfg := testConfig()
	cfg.MaxQueue = 1
	cfg.searchFn = func(pc place.Config) (*place.Result, error) {
		started <- struct{}{}
		<-release
		return place.Search(pc)
	}
	srv := newTestServer(t, cfg)
	t.Cleanup(func() { close(release) }) // runs before srv.Close

	// Occupy the single worker, then wait until it has actually picked
	// the decoy up so the queue is deterministically empty again.
	if _, err := srv.Place(context.Background(), grid.TorusSpec(4, 2), grid.MeshSpec(4, 2), false); err != nil {
		t.Fatal(err)
	}
	<-started

	// Fill the queue (depth 1 = MaxQueue) ...
	if _, err := srv.Place(context.Background(), grid.TorusSpec(8), grid.TorusSpec(8), false); err != nil {
		t.Fatal(err)
	}
	// ... so the next cold pair is refused.
	_, err := srv.Place(context.Background(), grid.TorusSpec(2, 2, 2), grid.MeshSpec(2, 2, 2), false)
	if !errors.Is(err, ErrBacklogged) {
		t.Fatalf("cold pair against a full queue returned %v, want ErrBacklogged", err)
	}
	var bp *backpressureError
	if !errors.As(err, &bp) || bp.retryAfter <= 0 {
		t.Fatalf("backpressure error carries no retry hint: %#v", err)
	}

	// A known pair still answers — backpressure only guards creations.
	if _, err := srv.Place(context.Background(), grid.TorusSpec(8), grid.TorusSpec(8), false); err != nil {
		t.Fatalf("known pair refused under backpressure: %v", err)
	}

	if st := srv.Status(); st.Backpressured != 1 {
		t.Fatalf("backpressured = %d, want 1", st.Backpressured)
	}
}

// TestStatusUptime: Status reports the injected clock's elapsed time,
// and the registry's uptime gauge agrees with it.
func TestStatusUptime(t *testing.T) {
	clock := newFakeClock()
	cfg := testConfig()
	cfg.now = clock.Now
	srv := newTestServer(t, cfg)
	clock.Advance(90 * time.Second)
	if st := srv.Status(); st.UptimeSeconds != 90 {
		t.Fatalf("uptime = %v, want 90", st.UptimeSeconds)
	}
}

// TestPlaceErrors: canonicalization failures and closed servers
// surface as the typed sentinels the HTTP layer maps to status codes.
func TestPlaceErrors(t *testing.T) {
	srv := newTestServer(t, testConfig())
	_, err := srv.Place(context.Background(), grid.TorusSpec(4, 2), grid.MeshSpec(4, 4), false)
	if !errors.Is(err, ErrBadPair) {
		t.Fatalf("size mismatch returned %v, want ErrBadPair", err)
	}
	srv.Close()
	_, err = srv.Place(context.Background(), grid.TorusSpec(4, 2), grid.MeshSpec(4, 2), false)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("closed server returned %v, want ErrClosed", err)
	}
}
