package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"torusmesh/internal/catalog"
	"torusmesh/internal/census"
	"torusmesh/internal/core"
	"torusmesh/internal/driver"
	"torusmesh/internal/grid"
	"torusmesh/internal/place"
)

const (
	fleetShards   = 6
	fleetAttempts = 2
	fleetBudget   = 16
)

// fleetLoad times in-process driver.Run passes over a census with the
// congestion pass and a placement column, journaling every folded
// record and writing the merged artifact. Place runs thousands of small
// un-annealed searches here, and the driver's fold, journal and
// artifact writes sit on the path.
type fleetLoad struct {
	sc        scale
	dir       string
	placeTmpl place.Config
	tmpl      census.Config
	want      [sha256.Size]byte

	last     *census.Census
	progress driver.Progress
	journal  int64
	mu       sync.Mutex
	searched []*place.Result // the traced pass's search results
}

func (w *fleetLoad) template(n int) census.Config {
	cfg := census.Config{
		Size:       n,
		MaxDim:     w.sc.fleetMaxDim,
		Shapes:     catalog.CanonicalShapesOfSize(n, w.sc.fleetMaxDim),
		Metrics:    true,
		Congestion: true,
		Embed:      core.Embed,
	}
	cfg.Place, cfg.PlaceSpec = place.CensusFunc(w.placeTmpl)
	return cfg
}

func (w *fleetLoad) setup() error {
	w.placeTmpl = place.Config{
		Budget:      fleetBudget,
		CapDilation: true,
		Rotations:   true,
		Strategies:  place.DefaultStrategies(),
	}
	var warm [sha256.Size]byte
	if _, _, err := w.pass(w.template(w.sc.fleetWarm), nil, &warm); err != nil {
		return fmt.Errorf("fleet warm-up: %v", err)
	}
	w.tmpl = w.template(w.sc.fleetSize)
	return nil
}

func (w *fleetLoad) measure(window time.Duration, tr *tracer) (*sample, error) {
	s := &sample{}
	for end, pass := time.Now().Add(window), 0; pass == 0 || time.Now().Before(end); pass++ {
		c, took, err := w.pass(w.tmpl, tr, &w.want)
		if c == nil {
			return nil, err
		}
		s.jobs = append(s.jobs, took)
		for i := range c.Results {
			s.ops = append(s.ops, c.Results[i].Wall)
		}
		s.attempted += c.SpacePairs
		if err != nil {
			logf("fleet pass %d: %v", pass, err)
			s.failed += c.SpacePairs
		}
	}
	s.perSec = float64(w.last.SpacePairs) / quantile(s.jobs, 0.5).Seconds()
	return s, nil
}

// pass runs one driver pass, returning its census and wall time, and
// then checks it: the merged artifact, the journal read back and the
// written file must be the same bytes, equal to *want. Only a pass that
// produced no census returns a nil census.
func (w *fleetLoad) pass(tmpl census.Config, tr *tracer, want *[sha256.Size]byte) (*census.Census, time.Duration, error) {
	journalPath := filepath.Join(w.dir, "journal.ndjson")
	artifactPath := filepath.Join(w.dir, "census.json")
	start := time.Now()
	f, err := os.Create(journalPath)
	if err != nil {
		return nil, 0, err
	}
	sw, err := census.NewStreamWriter(f, tmpl.StreamHeader())
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	// The driver serializes OnResult calls, so journalErr needs no lock.
	var journalErr error
	onResult := func(r *census.PairResult) {
		if journalErr == nil {
			journalErr = sw.Write(r)
		}
	}
	var worker driver.Worker = driver.InProcess{}
	var id int64
	if tr != nil {
		id = tr.newID()
		tmpl, worker, onResult = w.trace(tr, id, tmpl, onResult)
	}
	d, err := driver.New(driver.Plan{
		Config:   tmpl,
		Shards:   fleetShards,
		Workers:  fleetAttempts,
		Worker:   worker,
		OnResult: onResult,
	})
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	c, err := d.Run(context.Background())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = journalErr
	}
	if err != nil {
		return nil, 0, err
	}
	written := time.Now()
	if err := c.WriteFile(artifactPath); err != nil {
		return nil, 0, err
	}
	stop := time.Now()
	if tr != nil {
		tr.record(tr.newID(), id, driverArtifact, written, stop)
		tr.record(id, 0, driverRun, start, stop)
	}
	w.last, w.progress = c, d.Progress()
	return c, stop.Sub(start), w.verify(c, journalPath, artifactPath, want)
}

// verify checks a finished pass.
func (w *fleetLoad) verify(c *census.Census, journalPath, artifactPath string, want *[sha256.Size]byte) error {
	merged, err := c.EncodeBytes()
	if err != nil {
		return err
	}
	if err := sameBytes(merged, want); err != nil {
		return err
	}
	file, err := os.ReadFile(artifactPath)
	if err != nil {
		return err
	}
	if err := sameBytes(file, want); err != nil {
		return fmt.Errorf("written artifact: %v", err)
	}
	info, err := os.Stat(journalPath)
	if err != nil {
		return err
	}
	w.journal = info.Size()
	jf, err := os.Open(journalPath)
	if err != nil {
		return err
	}
	defer jf.Close()
	jc, err := census.ReadStream(jf)
	if err != nil {
		return fmt.Errorf("journal: %v", err)
	}
	if jc, err = census.Merge(jc); err != nil {
		return fmt.Errorf("journal: %v", err)
	}
	if err := sameArtifact(jc, want); err != nil {
		return fmt.Errorf("journal: %v", err)
	}
	return nil
}

// check compares the fleet's artifact with an unsharded census.Run of
// the same template.
func (w *fleetLoad) check(s *sample) error {
	c, err := census.Run(w.tmpl)
	if err != nil {
		return err
	}
	s.attempted += c.SpacePairs
	if err := sameArtifact(c, &w.want); err != nil {
		logf("fleet: unsharded census: %v", err)
		s.failed += c.SpacePairs
	}
	return nil
}

// foldSpan is the driver.fold span an attempt's emit is inside. Emits
// hold mu across the driver's fold, so the journal hook, which the fold
// calls, reads the id of the fold it runs in.
type foldSpan struct {
	mu sync.Mutex
	id int64
}

// trace wraps the pass's hooks in spans: driver.attempt around each
// worker run, census.pair for each emitted record, driver.fold around
// the driver's fold of it, driver.journal around the journal write, and
// embed.construct and place.search spans filed under their pair.
func (w *fleetLoad) trace(tr *tracer, run int64, tmpl census.Config, journal func(*census.PairResult)) (census.Config, driver.Worker, func(*census.PairResult)) {
	o := newOrphans()
	fold := &foldSpan{}
	w.mu.Lock()
	w.searched = nil
	w.mu.Unlock()
	tmpl.Embed = tr.censusEmbed(tmpl.Embed, o)
	tmpl.Place = func(g, h grid.Spec) (*census.PlaceSummary, error) {
		id := tr.newID()
		cfg := w.placeTmpl
		cfg.Guest, cfg.Host = g, h
		cfg.Strategies = tr.strategies(cfg.Strategies, id)
		start := time.Now()
		res, err := place.Search(cfg)
		o.add(pairKey(g, h), tr.record(id, 0, placeSearch, start, time.Now()))
		if err != nil {
			return nil, err
		}
		w.mu.Lock()
		w.searched = append(w.searched, res)
		w.mu.Unlock()
		return place.Summary(res.Best), nil
	}
	worker := tracedWorker{tr: tr, run: run, pairs: o, fold: fold}
	onResult := func(r *census.PairResult) {
		start := time.Now()
		journal(r)
		tr.record(tr.newID(), fold.id, driverJournal, start, time.Now())
	}
	return tmpl, worker, onResult
}

// tracedWorker is driver.InProcess with spans.
type tracedWorker struct {
	tr    *tracer
	run   int64
	pairs *orphans
	fold  *foldSpan
}

func (w tracedWorker) Run(ctx context.Context, job driver.Job, emit func(census.PairResult) error) error {
	id := w.tr.newID()
	start := time.Now()
	err := driver.InProcess{}.Run(ctx, job, func(r census.PairResult) error {
		w.tr.pairDone(&r, id, w.pairs)
		w.fold.mu.Lock()
		defer w.fold.mu.Unlock()
		w.fold.id = w.tr.newID()
		begin := time.Now()
		err := emit(r)
		w.tr.record(w.fold.id, id, driverFold, begin, time.Now())
		return err
	})
	w.tr.record(id, w.run, driverAttempt, start, time.Now())
	return err
}

func (w *fleetLoad) layers(tr *tracer, m, diag map[string]float64) ([]netsimCase, error) {
	censusCounts(w.last, m)
	w.mu.Lock()
	placeCounts(w.searched, m)
	w.mu.Unlock()
	for _, sp := range w.progress.Shard {
		m["driver.attempts"] += float64(sp.Attempts)
		m["driver.failures"] += float64(sp.Failures)
	}
	m["driver.journal_bytes"] = float64(w.journal)
	m["embed.constructs"] = tr.perUnit(embedConstruct, driverRun)
	diag["driver.attempt_s_p50"] = quantile(tr.durations(driverAttempt), 0.5).Seconds()
	diag["driver.queue_wait_s"] = queueWait(tr).Seconds()
	diag["driver.fold_us_p50"] = us(quantile(tr.durations(driverFold), 0.5))
	diag["driver.journal_write_us_p50"] = us(quantile(tr.durations(driverJournal), 0.5))
	diag["driver.artifact_write_ms"] = ms(quantile(tr.durations(driverArtifact), 0.5))
	diag["place.census_search_ms_p50"] = ms(quantile(tr.durations(placeSearch), 0.5))
	diag["census.pair_us_p50"] = us(quantile(tr.durations(censusPair), 0.5))
	return baselineCases(censusPairs(&w.tmpl))
}

// queueWait is the mean time an attempt waited for a worker slot after
// its pass started.
func queueWait(tr *tracer) time.Duration {
	spans := tr.all()
	runs := map[int64]int64{}
	for _, s := range spans {
		if s.name == driverRun {
			runs[s.id] = s.start
		}
	}
	var sum time.Duration
	n := 0
	for _, s := range spans {
		if start, ok := runs[s.parent]; ok && s.name == driverAttempt {
			sum += time.Duration(s.start - start)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

func (w *fleetLoad) close() {}

func (w *fleetLoad) artifactDigest() [sha256.Size]byte { return w.want }
