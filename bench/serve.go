package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"torusmesh/internal/catalog"
	"torusmesh/internal/grid"
	"torusmesh/internal/place"
	"torusmesh/internal/serve"
)

const (
	// serveClients closed-loop clients run, one connection each: one per
	// core of the machine the benchmark was sized on.
	serveClients = 2
	// coldEvery is how often each client sends the next never-seen pair,
	// whatever its hot throughput, so the cold stream runs at a fixed
	// 20 pairs/s in total.
	coldEvery = 100 * time.Millisecond
	// relabeled is the share of hot requests that name the guest with
	// its axes reversed.
	relabeled = 0.1
	// spanHeader carries a request's span id to the server-side span.
	spanHeader = "X-Bench-Span"
	// upgradeWait bounds how long a cold pair may take to be searched.
	upgradeWait = time.Minute
)

// servePair is one canonical pair of the serve traffic.
type servePair struct {
	g, h     grid.Spec // canonical
	place    string    // /place query
	relabel  string    // /place query naming the guest with reversed axes
	artifact string    // /artifact query
	// guest and host are the canonical names every answer for the pair
	// must carry, as they appear in the response body.
	guest, host []byte
}

func specQuery(sp grid.Spec) string { return sp.Kind.String() + ":" + sp.Shape.String() }

func newServePair(key catalog.PairKey) servePair {
	q := func(g grid.Spec) string {
		return url.Values{"from": {specQuery(g)}, "to": {specQuery(key.Host)}}.Encode()
	}
	rev := key.Guest.Shape.Clone()
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return servePair{
		g:        key.Guest,
		h:        key.Host,
		place:    "/place?" + q(key.Guest),
		relabel:  "/place?" + q(grid.Spec{Kind: key.Guest.Kind, Shape: rev}),
		artifact: "/artifact?" + q(key.Guest),
		guest:    []byte(`"canonical_guest": "` + key.Guest.String() + `"`),
		host:     []byte(`"canonical_host": "` + key.Host.String() + `"`),
	}
}

// canonicalPairs lists the distinct canonical pairs whose guest and host
// shapes are canonical shapes of the given sizes, in enumeration order,
// leaving out the keys in skip.
func canonicalPairs(sizes []int, maxDim int, skip map[string]bool) []servePair {
	var out []servePair
	seen := map[string]bool{}
	for _, n := range sizes {
		var specs []grid.Spec
		for _, s := range catalog.CanonicalShapesOfSize(n, maxDim) {
			specs = append(specs, grid.Spec{Kind: grid.Mesh, Shape: s}, grid.Spec{Kind: grid.Torus, Shape: s})
		}
		for _, g := range specs {
			for _, h := range specs {
				key, err := catalog.CanonicalPair(g, h)
				if err != nil || seen[key.String()] || skip[key.String()] {
					continue
				}
				seen[key.String()] = true
				out = append(out, newServePair(key))
			}
		}
	}
	return out
}

// serveLoad drives serve.Server over HTTP from closed-loop clients: hot
// pairs answered from the cache, relabelings of them, and a fixed-rate
// stream of never-seen pairs answered at the baseline tier while a
// background search upgrades them.
type serveLoad struct {
	sc     scale
	seed   int64
	dir    string
	window time.Duration

	hot, cold []servePair
	streams   []*rand.Rand // each client's request stream
	cfg       place.Config
	cache     string
	srv       *serve.Server
	hs        *httptest.Server
	tr        atomic.Pointer[tracer]
	nextCold  atomic.Int64

	mu       sync.Mutex
	upgrades []time.Duration // this window's
	// upgradeOps and upgradeFailed count this window's cold pairs and
	// the ones never answered at the searched tier.
	upgradeOps, upgradeFailed int
	// The traced windows' cold request times, upgraded results, searches
	// and deduplicated requests, and deepest search queue.
	coldTimes         []time.Duration
	upgraded          []*place.Result
	searches, deduped int64
	queueMax          int
	want              [sha256.Size]byte
}

const serveMaxDim = 3

func (w *serveLoad) setup() error {
	all := canonicalPairs(w.sc.hotSizes, serveMaxDim, nil)
	rand.New(rand.NewSource(1)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	w.hot = all[:min(w.sc.hotPairs, len(all))]
	skip := map[string]bool{}
	for _, p := range w.hot {
		skip[pairKey(p.g, p.h)] = true
	}
	// The window consumes the whole cold pool, so every seed searches the
	// same pairs and the seed decides only their order.
	all = canonicalPairs(w.sc.coldSizes, serveMaxDim, skip)
	rand.New(rand.NewSource(1)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	w.cold = all[:min(serveClients*int(w.window/coldEvery+1), len(all))]
	rand.New(rand.NewSource(w.seed)).Shuffle(len(w.cold), func(i, j int) { w.cold[i], w.cold[j] = w.cold[j], w.cold[i] })
	w.nextCold.Store(0)
	w.streams = nil
	for id := 0; id < serveClients; id++ {
		w.streams = append(w.streams, w.traffic(id))
	}

	w.cfg = place.Config{
		Objective:   place.DefaultObjective(),
		CapDilation: true,
		Rotations:   true,
		Strategies:  place.DefaultStrategies(),
	}
	cfg := w.cfg
	cfg.Strategies = wrapStrategies(cfg.Strategies, w.tr.Load, 0)
	var err error
	if w.cache, err = os.MkdirTemp(w.dir, "cache-"); err != nil {
		return err
	}
	if w.srv, err = serve.New(serve.Config{Place: cfg, CacheDir: w.cache, SearchWorkers: 1}); err != nil {
		return err
	}
	for _, p := range w.hot {
		if _, err := w.srv.Place(context.Background(), p.g, p.h, false); err != nil {
			return fmt.Errorf("serve warm-up %s: %v", pairKey(p.g, p.h), err)
		}
	}
	w.srv.Flush()
	if st := w.srv.Status(); st.Searched != len(w.hot) {
		return fmt.Errorf("serve warm-up: %d of %d hot pairs searched", st.Searched, len(w.hot))
	}
	base := w.srv.Handler()
	w.hs = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr := w.tr.Load()
		if tr == nil {
			base.ServeHTTP(rw, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		start := time.Now()
		base.ServeHTTP(rw, r)
		tr.record(tr.newID(), parent, serveHandle, start, time.Now())
	}))
	// Warm the handler and the connections on every hot pair.
	c := newClient()
	defer c.CloseIdleConnections()
	var body bytes.Buffer
	for _, p := range w.hot {
		if _, code, err := w.get(c, p.place, &body, nil); err != nil || code != http.StatusOK {
			return fmt.Errorf("serve warm-up %s: status %d, %v", p.place, code, err)
		}
	}
	return nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// get sends one request and reads the whole answer into body, returning
// the round-trip time, as an http.request span when traced.
func (w *serveLoad) get(c *http.Client, path string, body *bytes.Buffer, tr *tracer) (time.Duration, int, error) {
	req, err := http.NewRequest(http.MethodGet, w.hs.URL+path, nil)
	if err != nil {
		return 0, 0, err
	}
	var id int64
	if tr != nil {
		id = tr.newID()
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, 0, err
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	stop := time.Now()
	if tr != nil {
		tr.record(id, 0, httpRequest, start, stop)
	}
	return stop.Sub(start), resp.StatusCode, err
}

// clientStats is what one client measured.
type clientStats struct {
	lat               []time.Duration
	attempted, failed int
}

func (w *serveLoad) measure(window time.Duration, tr *tracer) (*sample, error) {
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	w.mu.Lock()
	w.upgrades, w.upgradeOps, w.upgradeFailed = nil, 0, 0
	w.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), window+upgradeWait)
	defer cancel()
	var waiters, clients sync.WaitGroup
	if tr != nil {
		before := w.srv.Status()
		defer func() {
			after := w.srv.Status()
			w.mu.Lock()
			w.searches += after.Searches - before.Searches
			w.deduped += after.Deduped - before.Deduped
			w.mu.Unlock()
		}()
		stop := make(chan struct{})
		var sampler sync.WaitGroup
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			w.sampleQueue(stop)
		}()
		defer func() {
			close(stop)
			sampler.Wait()
		}()
	}
	stats := make([]clientStats, serveClients)
	start := time.Now()
	deadline := start.Add(window)
	for i := range stats {
		clients.Add(1)
		go func() {
			defer clients.Done()
			w.client(ctx, i, start, deadline, &stats[i], &waiters, tr)
		}()
	}
	clients.Wait()
	elapsed := time.Since(start)
	waiters.Wait()

	s := &sample{}
	for _, st := range stats {
		s.ops = append(s.ops, st.lat...)
		s.attempted += st.attempted
		s.failed += st.failed
	}
	s.perSec = float64(len(s.ops)) / elapsed.Seconds()
	w.mu.Lock()
	s.jobs = append(s.jobs, w.upgrades...)
	s.attempted += w.upgradeOps
	s.failed += w.upgradeFailed
	w.mu.Unlock()
	return s, nil
}

// client runs one closed-loop client until the deadline: hot and
// relabeled-hot requests drawn from its own seeded stream, and the next
// never-seen pair every coldEvery.
func (w *serveLoad) client(ctx context.Context, id int, start, deadline time.Time, st *clientStats, waiters *sync.WaitGroup, tr *tracer) {
	c := newClient()
	defer c.CloseIdleConnections()
	rng := w.streams[id]
	var body bytes.Buffer
	nextCold := start.Add(coldEvery * time.Duration(id+1) / serveClients)
	for now := time.Now(); now.Before(deadline); now = time.Now() {
		var p *servePair
		var path string
		cold := false
		if !now.Before(nextCold) {
			nextCold = nextCold.Add(coldEvery)
			if k := int(w.nextCold.Add(1) - 1); k < len(w.cold) {
				p, path, cold = &w.cold[k], w.cold[k].place, true
				sent := time.Now()
				waiters.Add(1)
				go func() {
					defer waiters.Done()
					w.upgrade(ctx, p, sent, tr != nil)
				}()
			}
		}
		if !cold {
			p, path = w.next(rng)
		}
		lat, code, err := w.get(c, path, &body, tr)
		st.attempted++
		st.lat = append(st.lat, lat)
		if !answers(p, code, body.Bytes(), cold, err) {
			st.failed++
			logf("serve: %s: status %d, %v", path, code, err)
		}
		if cold && tr != nil {
			w.mu.Lock()
			w.coldTimes = append(w.coldTimes, lat)
			w.mu.Unlock()
		}
	}
}

// traffic is client id's request stream; it depends only on the seed.
func (w *serveLoad) traffic(id int) *rand.Rand {
	return rand.New(rand.NewSource(w.seed*serveClients + int64(id)))
}

// next draws the next hot request.
func (w *serveLoad) next(rng *rand.Rand) (*servePair, string) {
	p := &w.hot[rng.Intn(len(w.hot))]
	if rng.Float64() < relabeled {
		return p, p.relabel
	}
	return p, p.place
}

// sampleQueue records the deepest search queue seen every 100ms until
// stop closes.
func (w *serveLoad) sampleQueue(stop <-chan struct{}) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			d := w.srv.Status().QueueDepth
			w.mu.Lock()
			w.queueMax = max(w.queueMax, d)
			w.mu.Unlock()
		}
	}
}

// answers reports whether a /place answer is correct: a hot pair's is a
// searched-tier answer for its canonical pair, a cold pair's any answer
// for its canonical pair, or 422 when no construction covers it.
func answers(p *servePair, code int, body []byte, cold bool, err error) bool {
	switch {
	case err != nil:
		return false
	case cold && code == http.StatusUnprocessableEntity:
		return true
	case code != http.StatusOK:
		return false
	case !cold && !bytes.Contains(body, []byte(`"tier": "searched"`)):
		return false
	}
	return bytes.Contains(body, p.guest) && bytes.Contains(body, p.host)
}

// upgrade times a cold pair from its request being sent until the
// server answers it at the searched tier. A pair no construction covers
// has no searched tier; its answer is correct and untimed.
func (w *serveLoad) upgrade(ctx context.Context, p *servePair, sent time.Time, traced bool) {
	a, err := w.srv.Place(ctx, p.g, p.h, true)
	took := time.Since(sent)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.upgradeOps++
	switch {
	case errors.Is(err, serve.ErrUnembeddable):
	case err != nil || a.Tier != serve.TierSearched:
		logf("serve: upgrade of %s failed: %v", pairKey(p.g, p.h), err)
		w.upgradeFailed++
	default:
		w.upgrades = append(w.upgrades, took)
		if traced {
			w.upgraded = append(w.upgraded, a.Result)
		}
	}
}

// check compares every hot pair's served artifact with a fresh search's.
func (w *serveLoad) check(s *sample) error {
	c := newClient()
	defer c.CloseIdleConnections()
	var body bytes.Buffer
	for _, p := range w.hot {
		s.attempted++
		cfg := w.cfg
		cfg.Guest, cfg.Host = p.g, p.h
		res, err := place.Search(cfg)
		if err != nil {
			return err
		}
		want, err := res.EncodeBytes()
		if err != nil {
			return err
		}
		if _, code, err := w.get(c, p.artifact, &body, nil); err != nil || code != http.StatusOK || !bytes.Equal(body.Bytes(), want) {
			logf("serve: %s: served artifact differs from a fresh search's (status %d, %v)", p.artifact, code, err)
			s.failed++
		}
		h := sha256.New()
		h.Write(w.want[:])
		h.Write(want)
		w.want = [sha256.Size]byte(h.Sum(nil))
	}
	return nil
}

func (w *serveLoad) layers(tr *tracer, m, diag map[string]float64) ([]netsimCase, error) {
	w.mu.Lock()
	placeCounts(w.upgraded, m)
	cold := w.cold[:min(int(w.nextCold.Load()), len(w.cold))]
	diag["serve.cold_request_ms_p50"] = ms(quantile(w.coldTimes, 0.5))
	m["serve.queue_depth_max"] = float64(w.queueMax)
	m["serve.searches"] = float64(w.searches)
	m["serve.deduped"] = float64(w.deduped)
	w.mu.Unlock()
	m["serve.requests"] = float64(len(tr.durations(httpRequest)))
	m["embed.constructs"] = float64(len(tr.durations(embedConstruct)))
	files, size, err := dirSize(w.cache)
	if err != nil {
		return nil, err
	}
	m["serve.cache_files"], m["serve.cache_bytes"] = float64(files), float64(size)
	diag["serve.http_us_p50"] = us(quantile(tr.durations(serveHandle), 0.5))

	var direct []time.Duration
	for i := 0; i < 2000; i++ {
		p := &w.hot[i%len(w.hot)]
		start := time.Now()
		if _, err := w.srv.Place(context.Background(), p.g, p.h, false); err != nil {
			return nil, err
		}
		direct = append(direct, time.Since(start))
	}
	diag["serve.hot_place_us_p50"] = us(quantile(direct, 0.5))

	var searches []time.Duration
	for _, p := range cold[:min(16, len(cold))] {
		cfg := w.cfg
		cfg.Guest, cfg.Host = p.g, p.h
		start := time.Now()
		if _, err := place.Search(cfg); err != nil {
			return nil, err
		}
		searches = append(searches, time.Since(start))
	}
	diag["serve.search_ms_p50"] = ms(quantile(searches, 0.5))

	var pairs [][2]grid.Spec
	for _, p := range append(append([]servePair(nil), w.hot...), cold...) {
		pairs = append(pairs, [2]grid.Spec{p.g, p.h})
	}
	return baselineCases(pairs)
}

// dirSize counts the files of dir and their bytes.
func dirSize(dir string) (files int, size int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		files++
		size += info.Size()
	}
	return files, size, nil
}

func (w *serveLoad) close() {
	if w.hs != nil {
		w.hs.Close()
		w.hs = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.cache != "" {
		os.RemoveAll(w.cache)
		w.cache = ""
	}
}

func (w *serveLoad) artifactDigest() [sha256.Size]byte { return w.want }
