// Package serve is the serving engine: it turns the batch placement
// pipeline into a long-running service answering "place guest G on
// host H" at interactive latency.
//
// The serving model is two-tier. Every request is first normalized to
// its canonical pair (catalog.CanonicalPair), so all relabelings that
// provably share a Pareto front share one cache entry. A hit returns
// the stored searched front; a miss answers immediately with the
// paper-baseline candidate (place.Baseline: the first strategy at
// identity symmetries, scored by the same function a search scores its
// Baseline with, and its table from place.BaselineEmbedding) while
// exactly one background search per canonical pair runs to upgrade the
// entry.
// Concurrent misses are deduplicated by the entry map itself: the
// request that creates the entry enqueues the one search, every other
// request joins it.
//
// Entries persist as the versioned place artifact, bit-for-bit the
// bytes `place -pareto -json` writes for the same pair and settings,
// so the cache directory is interchangeable with batch search output.
// A directory is bound to one search spec (place.Config.Spec(), kept
// in a sidecar file); opening it under different settings is refused
// rather than silently serving fronts from another objective.
//
// Every counter the server keeps lives on an obs.Registry — the same
// instruments back both the /status JSON snapshot and the Prometheus
// /metrics exposition, so the two can never disagree. When the
// background search queue exceeds Config.MaxQueue, cold-pair requests
// are refused with ErrBacklogged (HTTP 429 + Retry-After) instead of
// growing the queue without bound.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"torusmesh/internal/catalog"
	"torusmesh/internal/census"
	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/obs"
	"torusmesh/internal/place"
)

// Sentinel errors, wrapped by Place so the HTTP layer can map them to
// status codes without string matching.
var (
	// ErrClosed reports a request against a closed server.
	ErrClosed = errors.New("serve: server closed")
	// ErrBadPair reports a pair that cannot be canonicalized (invalid
	// shapes or mismatched sizes) or that is too large to place: above
	// embed.MaterializeThreshold() nodes, past which a placement table
	// is not materialized.
	ErrBadPair = errors.New("serve: invalid pair")
	// ErrUnembeddable reports a pair the baseline strategy cannot
	// embed — there is nothing to serve at either tier.
	ErrUnembeddable = errors.New("serve: pair has no baseline embedding")
	// ErrBacklogged reports a cold-pair request refused because the
	// background search queue is at Config.MaxQueue. The concrete error
	// carries a Retry-After hint; the HTTP layer maps it to 429.
	ErrBacklogged = errors.New("serve: search queue full")
)

// backpressureError is the concrete ErrBacklogged: it remembers the
// Retry-After hint derived from the queue depth at refusal time.
type backpressureError struct {
	depth      int
	retryAfter time.Duration
}

func (e *backpressureError) Error() string {
	return fmt.Sprintf("serve: search queue full (%d queued); retry in %s", e.depth, e.retryAfter)
}

func (e *backpressureError) Is(target error) bool { return target == ErrBacklogged }

// Config describes one server.
type Config struct {
	// Place is the search-settings template: its Guest and Host are
	// overwritten per pair, everything else (objective, budget, cap,
	// generators, annealing knobs, strategies) applies to every search
	// the server runs. Strategies[0] is also the baseline tier.
	Place place.Config
	// CacheDir, when set, persists every searched front as a place
	// artifact and reloads the directory on startup. The directory is
	// bound to Place.Spec() via a sidecar file; a mismatch fails New.
	CacheDir string
	// SearchWorkers is the number of concurrent background searches
	// (<= 0 means 1).
	SearchWorkers int
	// MaxQueue bounds the background search queue: when more than
	// MaxQueue searches are waiting for a worker, cold-pair requests
	// fail with ErrBacklogged instead of enqueuing (<= 0 means
	// unbounded). Census warming is exempt — it is an operator action,
	// not request traffic.
	MaxQueue int
	// Registry receives the server's metrics (and serves /metrics and
	// /statusz on the Handler). Nil means a private registry — tests
	// and embedded servers stay isolated; cmd/placed passes
	// obs.Default() so engine-level metrics share the page.
	Registry *obs.Registry
	// Pprof opts the Handler into the /debug/pprof/ suite.
	Pprof bool
	// Log, when set, receives diagnostic lines (cache skips, search
	// failures, census mismatches). Nil discards them.
	Log func(format string, args ...any)

	// searchFn substitutes the search function in tests; nil means
	// place.Search.
	searchFn func(place.Config) (*place.Result, error)
	// now substitutes the clock in tests; nil means time.Now. Uptime,
	// time-to-upgrade and latency histograms all read it, which is what
	// makes the /metrics exposition exactly reproducible under test.
	now func() time.Time
}

// SearchState is the lifecycle of one entry's background search.
type SearchState int32

const (
	// SearchQueued: the search is enqueued but no worker has picked it
	// up yet.
	SearchQueued SearchState = iota
	// SearchRunning: a worker is searching the pair now.
	SearchRunning
	// SearchDone: the searched front is available (terminal).
	SearchDone
	// SearchFailed: the search failed; the error is cached and the
	// entry keeps serving the baseline tier (terminal — search is
	// deterministic, so retrying cannot help).
	SearchFailed
)

func (s SearchState) String() string {
	switch s {
	case SearchQueued:
		return "queued"
	case SearchRunning:
		return "running"
	case SearchDone:
		return "done"
	case SearchFailed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Tier labels which answer tier a response carries.
type Tier string

const (
	// TierBaseline is the instant tier: the paper construction,
	// measured but not searched.
	TierBaseline Tier = "baseline"
	// TierSearched is the upgraded tier: the full Pareto front.
	TierSearched Tier = "searched"
)

// entry is one canonical pair's cache slot. The done channel settles
// exactly once — when the background search finishes (either way) or,
// for entries loaded from disk, before the entry is published — and
// res/artifact/searchErr are written strictly before it closes, so
// readers that observed <-done need no lock.
type entry struct {
	key catalog.PairKey // canonical pair, identity perms
	id  string          // key.String()
	// guestName and hostName are the canonical guest's and host's names
	// as JSON strings, formatted once for the head of every answer.
	guestName, hostName []byte

	// created is when the entry (and so its background search) was
	// enqueued; the time-to-upgrade histogram measures from here.
	created time.Time

	baselineOnce sync.Once
	baseline     *place.Candidate
	baselineErr  error

	state atomic.Int32 // SearchState
	done  chan struct{}

	res       *place.Result
	artifact  []byte
	searchErr error

	// members is the searched tier's answer after the head (see
	// searchedMembers), encoded from res on the first searched-tier
	// answer, so entries nobody asks for never build it.
	membersOnce sync.Once
	members     []byte
	membersErr  error

	// warm is the winner summary recorded by the census this entry was
	// pre-seeded from, when that census ran under the server's exact
	// search spec; the finished search is cross-checked against it.
	warm *census.PlaceSummary

	// table memoizes the winner's canonical placement table (built on
	// demand: entries loaded from disk re-derive it by re-running the
	// deterministic search).
	tableMu sync.Mutex
	table   []int
}

// Server is the cache-backed placement service. Create with New; all
// methods are safe for concurrent use.
type Server struct {
	cfg    Config
	spec   string // cfg.Place.Spec()
	search func(place.Config) (*place.Result, error)
	now    func() time.Time
	start  time.Time
	reg    *obs.Registry

	mu       sync.Mutex
	entries  map[string]*entry
	pending  []*entry
	cond     *sync.Cond
	inflight int
	closed   bool

	wg       sync.WaitGroup // workers
	searchWG sync.WaitGroup // queued or running searches (Flush)

	// All counters live on reg so /status and /metrics read the same
	// instruments.
	requests        *obs.Counter
	tierBaseline    *obs.Counter
	tierSearched    *obs.Counter
	misses          *obs.Counter
	deduped         *obs.Counter
	backpressure    *obs.Counter
	searches        *obs.Counter
	searchFailures  *obs.Counter
	warmQueued      *obs.Counter
	warmMismatches  *obs.Counter
	cacheLoaded     *obs.Counter
	cacheLoadErrors *obs.Counter
	ttuSeconds      *obs.Histogram
	searchSeconds   *obs.Histogram
}

// New builds a server, loads the persistent cache (when configured)
// and starts the background search workers.
func New(cfg Config) (*Server, error) {
	// Settings that would fail every search fail startup instead.
	if err := cfg.Place.ValidateSettings(); err != nil {
		return nil, err
	}
	if cfg.SearchWorkers <= 0 {
		cfg.SearchWorkers = 1
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	search := cfg.searchFn
	if search == nil {
		search = place.Search
	}
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:     cfg,
		spec:    cfg.Place.Spec(),
		search:  search,
		now:     now,
		start:   now(),
		reg:     reg,
		entries: map[string]*entry{},
	}
	s.registerMetrics()
	s.cond = sync.NewCond(&s.mu)
	if cfg.CacheDir != "" {
		if err := s.openCache(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.SearchWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// registerMetrics creates the server's instruments on its registry.
// Names follow the repo scheme (ARCHITECTURE.md "Observability"):
// placed_ prefix, _total counters, _seconds duration histograms,
// labeled variants for tiers and endpoints.
func (s *Server) registerMetrics() {
	r := s.reg
	r.Describe("placed_requests_total", "Place calls received.")
	s.requests = r.Counter("placed_requests_total")
	r.Describe("placed_tier_served_total", "Answers served, by tier.")
	s.tierBaseline = r.Counter("placed_tier_served_total", obs.L("tier", string(TierBaseline)))
	s.tierSearched = r.Counter("placed_tier_served_total", obs.L("tier", string(TierSearched)))
	r.Describe("placed_cache_misses_total", "Requests that created a cache entry (and its background search).")
	s.misses = r.Counter("placed_cache_misses_total")
	r.Describe("placed_singleflight_dedup_total", "Requests that joined an already-running or queued search instead of starting one.")
	s.deduped = r.Counter("placed_singleflight_dedup_total")
	r.Describe("placed_backpressure_total", "Cold-pair requests refused with 429 because the search queue was full.")
	s.backpressure = r.Counter("placed_backpressure_total")
	r.Describe("placed_searches_total", "Background searches started.")
	s.searches = r.Counter("placed_searches_total")
	r.Describe("placed_search_failures_total", "Background searches that failed.")
	s.searchFailures = r.Counter("placed_search_failures_total")
	r.Describe("placed_warm_queued_total", "Searches enqueued by census warming.")
	s.warmQueued = r.Counter("placed_warm_queued_total")
	r.Describe("placed_warm_mismatches_total", "Warm searches whose winner disagreed with the census's recorded winner.")
	s.warmMismatches = r.Counter("placed_warm_mismatches_total")
	r.Describe("placed_cache_loaded_total", "Entries restored from the cache directory at startup.")
	s.cacheLoaded = r.Counter("placed_cache_loaded_total")
	r.Describe("placed_cache_load_errors_total", "Cache files skipped as unreadable at startup.")
	s.cacheLoadErrors = r.Counter("placed_cache_load_errors_total")
	r.Describe("placed_time_to_upgrade_seconds", "Time from entry creation to searched-tier availability.")
	s.ttuSeconds = r.Histogram("placed_time_to_upgrade_seconds", obs.DefDurationBuckets())
	r.Describe("placed_search_seconds", "Background search wall time.")
	s.searchSeconds = r.Histogram("placed_search_seconds", obs.DefDurationBuckets())

	r.Describe("placed_uptime_seconds", "Seconds since the server started.")
	r.GaugeFunc("placed_uptime_seconds", func() float64 { return s.now().Sub(s.start).Seconds() })
	r.Describe("placed_search_queue_depth", "Searches waiting for a worker.")
	r.GaugeFunc("placed_search_queue_depth", func() float64 {
		s.mu.Lock()
		d := len(s.pending)
		s.mu.Unlock()
		return float64(d)
	})
	r.Describe("placed_searches_inflight", "Searches running right now.")
	r.GaugeFunc("placed_searches_inflight", func() float64 {
		s.mu.Lock()
		d := s.inflight
		s.mu.Unlock()
		return float64(d)
	})
}

// Spec returns the canonical search-settings string every entry of
// this server is produced under.
func (s *Server) Spec() string { return s.spec }

// Answer is one resolved placement request.
type Answer struct {
	// Key is the request's canonical identity, carrying the
	// permutations that translate placements back to the caller's
	// labeling.
	Key catalog.PairKey
	// Tier says which tier answered; State and SearchErr describe the
	// background search either way.
	Tier      Tier
	State     SearchState
	SearchErr error
	// Baseline is set on the baseline tier, Result and Artifact (the
	// exact stored artifact bytes) on the searched tier.
	Baseline *place.Candidate
	Result   *place.Result
	Artifact []byte

	e *entry
}

// Place answers one request. The first request for a cold canonical
// pair creates its entry and enqueues the single background search;
// with wait=false it returns the baseline tier immediately, with
// wait=true it blocks (under ctx) until the search settles. Requests
// for searched pairs return the stored front.
func (s *Server) Place(ctx context.Context, g, h grid.Spec, wait bool) (*Answer, error) {
	s.requests.Inc()
	key, err := catalog.CanonicalPair(g, h)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPair, err)
	}
	if n, limit := key.Guest.Size(), embed.MaterializeThreshold(); n > limit {
		return nil, fmt.Errorf("%w: %s has %d nodes, more than the %d a placement covers", ErrBadPair, g, n, limit)
	}
	e, created, err := s.lookup(key)
	if err != nil {
		return nil, err
	}
	if created {
		s.misses.Inc()
	} else if st := SearchState(e.state.Load()); st == SearchQueued || st == SearchRunning {
		s.deduped.Inc()
	}
	if wait {
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if SearchState(e.state.Load()) == SearchDone {
		s.tierSearched.Inc()
		return &Answer{
			Key:      key,
			Tier:     TierSearched,
			State:    SearchDone,
			Result:   e.res,
			Artifact: e.artifact,
			e:        e,
		}, nil
	}
	e.baselineOnce.Do(func() { e.baseline, e.baselineErr = s.buildBaseline(e) })
	if e.baselineErr != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnembeddable, e.baselineErr)
	}
	s.tierBaseline.Inc()
	a := &Answer{
		Key:      key,
		Tier:     TierBaseline,
		State:    SearchState(e.state.Load()),
		Baseline: e.baseline,
		e:        e,
	}
	if a.State == SearchFailed {
		a.SearchErr = e.searchErr
	}
	return a, nil
}

// lookup returns the entry for a canonical key, creating it — and
// enqueuing its one background search — when absent. The created
// return is true only for the request that created the entry, which
// is what makes the dedup singleflight: every later concurrent caller
// lands on the same entry and no second search exists to join. A
// would-be creation against a full queue is refused with
// ErrBacklogged instead.
func (s *Server) lookup(key catalog.PairKey) (*entry, bool, error) {
	id := key.String()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	if e := s.entries[id]; e != nil {
		return e, false, nil
	}
	if s.cfg.MaxQueue > 0 && len(s.pending) >= s.cfg.MaxQueue {
		s.backpressure.Inc()
		return nil, false, &backpressureError{
			depth:      len(s.pending),
			retryAfter: s.retryAfterLocked(),
		}
	}
	e, err := newEntry(key)
	if err != nil {
		return nil, false, err
	}
	e.created = s.now()
	s.entries[id] = e
	s.enqueueLocked(e)
	return e, true, nil
}

// retryAfterLocked estimates how long a refused client should wait:
// one queue-drain's worth of searches per worker, floored at a second.
// It is a hint, not a promise — the point is to spread retries.
func (s *Server) retryAfterLocked() time.Duration {
	waves := len(s.pending)/s.cfg.SearchWorkers + 1
	return time.Duration(waves) * time.Second
}

// newEntry builds the cache slot for a key's canonical pair. The
// entry's own key is re-canonicalized so it carries identity
// permutations regardless of the labeling of the request that created
// it.
func newEntry(key catalog.PairKey) (*entry, error) {
	canon, err := catalog.CanonicalPair(key.Guest, key.Host)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPair, err)
	}
	return &entry{
		key:       canon,
		id:        canon.String(),
		guestName: appendName(nil, canon.Guest),
		hostName:  appendName(nil, canon.Host),
		done:      make(chan struct{}),
	}, nil
}

func (s *Server) enqueueLocked(e *entry) {
	s.pending = append(s.pending, e)
	s.searchWG.Add(1)
	s.cond.Signal()
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		e := s.pending[0]
		s.pending = s.pending[1:]
		s.inflight++
		s.mu.Unlock()
		s.runSearch(e)
		s.mu.Lock()
		s.inflight--
		s.mu.Unlock()
		s.searchWG.Done()
	}
}

// runSearch upgrades one entry: the full placement search on the
// canonical pair, encoded to the artifact bytes the cache persists.
func (s *Server) runSearch(e *entry) {
	started := s.now()
	e.state.Store(int32(SearchRunning))
	s.searches.Inc()
	res, err := s.search(s.pairConfig(e))
	var artifact []byte
	if err == nil {
		artifact, err = res.EncodeBytes()
	}
	if err != nil {
		e.searchErr = err
		e.state.Store(int32(SearchFailed))
		s.searchFailures.Inc()
		s.searchSeconds.Observe(s.now().Sub(started).Seconds())
		s.cfg.Log("serve: search %s failed: %v", e.id, err)
		close(e.done)
		return
	}
	if res.BestEmbedding != nil {
		// Keep the winner's placement table for ?table requests, drop
		// the embedding itself (its kernels can hold materialized
		// tables for the whole candidate cache).
		e.table = res.BestEmbedding.Table()
		res.BestEmbedding = nil
	}
	e.res = res
	e.artifact = artifact
	if e.warm != nil {
		if got := place.Summary(res.Best); *got != *e.warm {
			s.warmMismatches.Inc()
			s.cfg.Log("serve: census winner for %s disagrees with search: census %+v, search %+v",
				e.id, *e.warm, *got)
		}
	}
	e.state.Store(int32(SearchDone))
	now := s.now()
	s.searchSeconds.Observe(now.Sub(started).Seconds())
	s.ttuSeconds.Observe(now.Sub(e.created).Seconds())
	if err := s.store(e); err != nil {
		s.cfg.Log("serve: cache write for %s failed: %v", e.id, err)
	}
	close(e.done)
}

// pairConfig is the server's search config for the entry's canonical
// pair: every search, baseline and table of the entry runs on it.
func (s *Server) pairConfig(e *entry) place.Config {
	cfg := s.cfg.Place
	cfg.Guest, cfg.Host = e.key.Guest, e.key.Host
	return cfg
}

// buildBaseline scores the instant tier: place.Baseline of the entry's
// canonical pair, the same candidate a search of the pair reports as
// its Baseline.
func (s *Server) buildBaseline(e *entry) (*place.Candidate, error) {
	c, err := place.Baseline(s.pairConfig(e))
	if err != nil {
		return nil, err
	}
	return &c, nil
}

// Table returns the answer's placement table in the caller's own
// labeling: table[guest rank] = host rank, with exactly the costs the
// answer reports (the canonical table composed with metric-preserving
// relabelings). Searched-tier tables for entries restored from disk
// re-run the deterministic search once and memoize.
func (s *Server) Table(a *Answer) ([]int, error) {
	var canon []int
	var err error
	if a.Tier == TierSearched {
		canon, err = s.winnerTable(a.e)
	} else {
		canon, err = s.baselineTable(a.e)
	}
	if err != nil {
		return nil, err
	}
	return a.Key.DenormalizePlacement(canon), nil
}

func (s *Server) winnerTable(e *entry) ([]int, error) {
	e.tableMu.Lock()
	defer e.tableMu.Unlock()
	if e.table != nil {
		return e.table, nil
	}
	res, err := s.search(s.pairConfig(e))
	if err != nil {
		return nil, fmt.Errorf("serve: rebuild winner for %s: %v", e.id, err)
	}
	if res.BestEmbedding == nil {
		return nil, fmt.Errorf("serve: search returned no winning embedding for %s", e.id)
	}
	e.table = res.BestEmbedding.Table()
	return e.table, nil
}

// baselineTable is the table of place.BaselineEmbedding, the embedding
// buildBaseline's place.Baseline scores.
func (s *Server) baselineTable(e *entry) ([]int, error) {
	emb, err := place.BaselineEmbedding(s.pairConfig(e))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnembeddable, err)
	}
	return emb.Table(), nil
}

// Artifact returns the stored artifact bytes for a pair, or ok=false
// while the pair is unknown or its search has not finished.
func (s *Server) Artifact(g, h grid.Spec) ([]byte, error) {
	key, err := catalog.CanonicalPair(g, h)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPair, err)
	}
	s.mu.Lock()
	e := s.entries[key.String()]
	s.mu.Unlock()
	if e == nil || SearchState(e.state.Load()) != SearchDone {
		return nil, nil
	}
	return e.artifact, nil
}

// Flush blocks until the background queue is empty and no search is
// running — the warm-then-serve and test helper.
func (s *Server) Flush() { s.searchWG.Wait() }

// Close stops the workers. Queued-but-unstarted searches are failed
// with ErrClosed (unblocking any waiters); the search currently
// running on each worker finishes and is persisted. Close is
// idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	rest := s.pending
	s.pending = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, e := range rest {
		e.searchErr = ErrClosed
		e.state.Store(int32(SearchFailed))
		close(e.done)
		s.searchWG.Done()
	}
	s.wg.Wait()
	return nil
}

// StatusSchemaVersion versions the Status document (the /status wire
// format). v2 added uptime_seconds and deduped.
const StatusSchemaVersion = 2

// Status is a point-in-time snapshot of the server's cache and
// counters. Every counter is read from the same obs.Registry
// instruments /metrics exposes, so the two views cannot disagree.
type Status struct {
	Schema    int    `json:"schema"`
	PlaceSpec string `json:"place_spec"`
	// UptimeSeconds is how long the server has been running.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Pairs is the number of cache entries; Searched/Failed split them
	// by terminal search state (the remainder are queued or running).
	Pairs    int `json:"pairs"`
	Searched int `json:"searched"`
	Failed   int `json:"failed"`
	// QueueDepth is the number of searches waiting for a worker;
	// Inflight the number running right now.
	QueueDepth int `json:"queue_depth"`
	Inflight   int `json:"inflight"`
	// Requests counts Place calls; Misses the ones that created an
	// entry; Hits the ones answered at the searched tier;
	// BaselineServed the ones answered at the baseline tier; Deduped
	// the ones that joined an in-progress search; Backpressured the
	// ones refused because the queue was full.
	Requests       int64 `json:"requests"`
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	BaselineServed int64 `json:"baseline_served"`
	Deduped        int64 `json:"deduped"`
	Backpressured  int64 `json:"backpressured"`
	// Searches counts started background searches, SearchFailures the
	// failed ones.
	Searches       int64 `json:"searches"`
	SearchFailures int64 `json:"search_failures"`
	// WarmQueued counts searches enqueued by census warming;
	// WarmMismatches counts finished warm searches whose winner
	// disagreed with the census's recorded winner (always a bug —
	// search is deterministic).
	WarmQueued     int64 `json:"warm_queued"`
	WarmMismatches int64 `json:"warm_mismatches"`
	// CacheLoaded counts entries restored from the cache directory at
	// startup; CacheLoadErrors the files skipped as unreadable.
	CacheLoaded     int64 `json:"cache_loaded"`
	CacheLoadErrors int64 `json:"cache_load_errors"`
}

// Status snapshots the server.
func (s *Server) Status() Status {
	st := Status{
		Schema:          StatusSchemaVersion,
		PlaceSpec:       s.spec,
		UptimeSeconds:   s.now().Sub(s.start).Seconds(),
		Requests:        s.requests.Value(),
		Hits:            s.tierSearched.Value(),
		Misses:          s.misses.Value(),
		BaselineServed:  s.tierBaseline.Value(),
		Deduped:         s.deduped.Value(),
		Backpressured:   s.backpressure.Value(),
		Searches:        s.searches.Value(),
		SearchFailures:  s.searchFailures.Value(),
		WarmQueued:      s.warmQueued.Value(),
		WarmMismatches:  s.warmMismatches.Value(),
		CacheLoaded:     s.cacheLoaded.Value(),
		CacheLoadErrors: s.cacheLoadErrors.Value(),
	}
	s.mu.Lock()
	st.Pairs = len(s.entries)
	st.QueueDepth = len(s.pending)
	st.Inflight = s.inflight
	for _, e := range s.entries {
		switch SearchState(e.state.Load()) {
		case SearchDone:
			st.Searched++
		case SearchFailed:
			st.Failed++
		}
	}
	s.mu.Unlock()
	return st
}
