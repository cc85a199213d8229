// Package driver is the distributed sweep orchestrator — the fourth
// engine: it runs one census as a fleet of shard workers instead of one
// process. A Plan names the census template, a shard count, and a
// pluggable Worker (in-process census runs for tests and laptops,
// subprocess workers that exec `sweep -worker` for production), and
// Driver.Run schedules every shard over a bounded worker pool, folding
// each worker's streamed PairResult records into the merged census
// incrementally — through the same dedup-and-recount semantics as
// census.Merge — so the final artifact is bit-for-bit identical to an
// unsharded census.Run regardless of worker completion order, retries,
// straggler re-issues, or how a resumed run was split.
//
// Fault tolerance is the point of the layer. Records are validated
// structurally as they arrive (index in range, index in the attempt's
// stripe, guest/host names matching the deterministic enumeration), so
// a corrupted stream fails its attempt instead of poisoning the
// artifact. A failed or short attempt — a worker that crashed, was
// killed, or returned without covering its stripe — is retried with
// exponential backoff up to a per-shard budget, and because pair
// evaluation is deterministic and folding is first-write-wins, records
// that arrived before the crash are kept and duplicates from retries
// or re-issues are discarded. Attempts that run far past the median
// shard wall time are re-issued to another worker (the straggler
// policy); whichever attempt finishes the stripe first wins and the
// sibling is cancelled.
//
// Resume is the same fold applied before scheduling: Plan.Resume seeds
// the fold with records scanned from a partial NDJSON artifact
// (census.ScanStreamFile), shards whose stripes are already covered
// complete immediately, and workers see the remaining pairs through
// Job.Config.Skip so they are never re-evaluated.
package driver

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"torusmesh/internal/census"
	"torusmesh/internal/obs"
	"torusmesh/internal/par"
)

// Defaults of the Plan's zero-valued knobs.
const (
	// DefaultRetries is the per-shard retry budget after the first
	// attempt when Plan.Retries is zero.
	DefaultRetries = 2
	// DefaultBackoff is the delay before a shard's first retry when
	// Plan.Backoff is zero; it doubles on every subsequent retry.
	DefaultBackoff = 250 * time.Millisecond
	// DefaultStragglerInterval is how often running attempts are
	// checked against the straggler cutoff when Plan.StragglerInterval
	// is zero.
	DefaultStragglerInterval = 500 * time.Millisecond
)

// Job is one shard attempt handed to a Worker.
type Job struct {
	// Config is the shard-ready census config: the plan template with
	// Shard/Shards set and Skip filtering pairs the driver has already
	// folded (from resume or an earlier attempt of this shard).
	// In-process workers run it directly; subprocess workers carry the
	// equivalent information as command-line flags and may ignore it.
	Config census.Config
	// Shard/Shards name the stripe: the attempt must produce every
	// pair i of the space with i mod Shards == Shard that Skip does
	// not exclude.
	Shard, Shards int
	// Attempt is the 0-based attempt number for this shard, counting
	// retries and straggler re-issues.
	Attempt int
}

// Worker evaluates shard jobs. Implementations must be safe for
// concurrent Run calls (the driver runs up to Plan.Workers attempts at
// once), must deliver each finished pair through emit — any order, but
// one call at a time per attempt — and must abort promptly when ctx is
// cancelled. A non-nil emit error means the driver has rejected the
// record or the attempt; the worker should stop and return it.
type Worker interface {
	Run(ctx context.Context, job Job, emit func(census.PairResult) error) error
}

// Plan describes one distributed census run.
type Plan struct {
	// Config is the unsharded census template: exactly what a single
	// census.Run covering the whole space would take. Shard, Shards,
	// Skip and OnResult must be unset — the driver owns them.
	Config census.Config
	// Shards is how many stripes the pair space splits into (0 = 1).
	Shards int
	// Workers is how many attempts run concurrently (0 = the smaller
	// of Shards and par.Workers()).
	Workers int
	// Worker evaluates the jobs.
	Worker Worker
	// Retries is the per-shard retry budget after the first attempt
	// (0 = DefaultRetries, negative = no retries).
	Retries int
	// Backoff is the delay before a shard's first retry, doubling per
	// retry (0 = DefaultBackoff).
	Backoff time.Duration
	// StragglerFactor re-issues an attempt still running after
	// StragglerFactor × the median completed-shard wall time, once at
	// least two distinct shards have completed cleanly (a 0/1-sample
	// median would let one shard's wall time cancel a healthy lone
	// worker). Zero disables the policy.
	StragglerFactor float64
	// StragglerInterval is the check period (0 = DefaultStragglerInterval).
	StragglerInterval time.Duration
	// Resume seeds the fold with records recovered from a partial
	// artifact (census.ScanStreamFile). Records are validated like
	// worker records; duplicates are discarded.
	Resume []census.PairResult
	// OnResult, when set, is called exactly once per pair as its
	// record is first folded — the journal hook. Calls are serialized
	// and made in fold (arrival) order, which is not index order.
	// Resume records are not replayed. The callback must not retain
	// the pointer and must not call back into the driver.
	OnResult func(*census.PairResult)
	// OnShardDone, when set, is called (serialized) whenever a shard's
	// stripe becomes fully folded, including shards completed purely
	// from Resume records: the shard index, how many shards are done,
	// and the total.
	OnShardDone func(shard, done, total int)
	// Registry receives the driver's metrics (sweepd_* names) — the
	// instruments behind Progress and the -status endpoint. Nil means a
	// private registry; cmd/sweepd passes obs.Default() so the fold
	// shares a /metrics page with the engines it drives.
	Registry *obs.Registry
	// Clock substitutes the wall clock — attempt timing, the straggler
	// cutoff and the merged census's Elapsed all read it. Nil means
	// time.Now. Wall times never enter artifacts (they serialize as
	// json:"-"), so this is a pure testability knob, aligned with
	// serve.Config's.
	Clock func() time.Time
	// Log, when set, receives progress and retry diagnostics.
	Log func(format string, args ...any)
}

// Driver runs one Plan. Create with New; Run may be called once.
// Progress and the metrics registry are live from New on, so a status
// endpoint can be mounted before — and keep answering after — the run.
type Driver struct {
	plan        Plan
	specs       []string // spec strings in enumeration order
	space       int      // len(specs)^2
	now         func() time.Time
	retries     int
	backoff     time.Duration
	stragglerIv time.Duration

	st  *state
	reg *obs.Registry

	foldedRecords     *obs.Counter
	duplicateRecords  *obs.Counter
	rejectedRecords   *obs.Counter
	attempts          *obs.Counter
	attemptFailures   *obs.Counter
	retriesScheduled  *obs.Counter
	stragglerReissues *obs.Counter
	attemptSeconds    *obs.Histogram
}

// New validates the plan and prepares a driver for it.
func New(plan Plan) (*Driver, error) {
	if plan.Worker == nil {
		return nil, fmt.Errorf("driver: plan has no worker")
	}
	if plan.Config.Shard != 0 || plan.Config.Shards != 0 {
		return nil, fmt.Errorf("driver: plan config must be the unsharded template (got shard %d/%d)",
			plan.Config.Shard, plan.Config.Shards)
	}
	if plan.Config.Skip != nil || plan.Config.OnResult != nil || plan.Config.Interrupt != nil {
		return nil, fmt.Errorf("driver: plan config must leave Skip, OnResult and Interrupt unset")
	}
	if plan.Shards == 0 {
		plan.Shards = 1
	}
	if plan.Shards < 0 {
		return nil, fmt.Errorf("driver: %d shards", plan.Shards)
	}
	if plan.Workers == 0 {
		plan.Workers = min(plan.Shards, par.Workers())
	}
	if plan.Workers < 0 {
		return nil, fmt.Errorf("driver: %d workers", plan.Workers)
	}
	d := &Driver{
		plan:        plan,
		now:         plan.Clock,
		retries:     plan.Retries,
		backoff:     plan.Backoff,
		stragglerIv: plan.StragglerInterval,
	}
	if d.now == nil {
		d.now = time.Now
	}
	switch {
	case d.retries == 0:
		d.retries = DefaultRetries
	case d.retries < 0:
		d.retries = 0
	}
	if d.backoff <= 0 {
		d.backoff = DefaultBackoff
	}
	if d.stragglerIv <= 0 {
		d.stragglerIv = DefaultStragglerInterval
	}
	specs := plan.Config.Specs()
	d.specs = make([]string, len(specs))
	for i, sp := range specs {
		d.specs[i] = sp.String()
	}
	d.space = len(specs) * len(specs)

	// The fold state is allocated here, not in Run, so Progress (and a
	// status endpoint mounted on it) answers from the moment the driver
	// exists.
	m := d.plan.Shards
	d.st = &state{
		results:   make([]census.PairResult, d.space),
		have:      make([]bool, d.space),
		remaining: make([]int, m),
		stripe:    make([]int, m),
		doneShard: make([]bool, m),
		failures:  make([]int, m),
		issued:    make([]int, m),
		reissues:  make([]int, m),
		live:      make([][]*attempt, m),
		wall:      make([]time.Duration, m),
		timed:     make([]bool, m),
	}
	for i := 0; i < d.space; i++ {
		d.st.remaining[i%m]++
		d.st.stripe[i%m]++
	}

	d.reg = plan.Registry
	if d.reg == nil {
		d.reg = obs.NewRegistry()
	}
	d.registerMetrics()
	return d, nil
}

// registerMetrics creates the driver's instruments (sweepd_ prefix —
// the driver is the engine behind that CLI). Gauges read the live fold
// state; counters are incremented on the fold/schedule paths.
func (d *Driver) registerMetrics() {
	r := d.reg
	st := d.st
	r.Describe("sweepd_records_folded_total", "Pair records first-folded into the merged census.")
	d.foldedRecords = r.Counter("sweepd_records_folded_total")
	r.Describe("sweepd_records_duplicate_total", "Pair records discarded as duplicates (retries, straggler races, resume overlap).")
	d.duplicateRecords = r.Counter("sweepd_records_duplicate_total")
	r.Describe("sweepd_records_rejected_total", "Pair records rejected by structural validation.")
	d.rejectedRecords = r.Counter("sweepd_records_rejected_total")
	r.Describe("sweepd_attempts_total", "Shard attempts issued (initial, retries and straggler re-issues).")
	d.attempts = r.Counter("sweepd_attempts_total")
	r.Describe("sweepd_attempt_failures_total", "Shard attempts that failed or returned short.")
	d.attemptFailures = r.Counter("sweepd_attempt_failures_total")
	r.Describe("sweepd_retries_total", "Shard retries scheduled after a failed attempt.")
	d.retriesScheduled = r.Counter("sweepd_retries_total")
	r.Describe("sweepd_straggler_reissues_total", "Attempts re-issued by the straggler policy.")
	d.stragglerReissues = r.Counter("sweepd_straggler_reissues_total")
	r.Describe("sweepd_attempt_seconds", "Shard attempt wall time.")
	d.attemptSeconds = r.Histogram("sweepd_attempt_seconds", obs.DefDurationBuckets())

	r.Describe("sweepd_pairs", "Pairs in the census space.")
	r.GaugeFunc("sweepd_pairs", func() float64 { return float64(d.space) })
	r.Describe("sweepd_pairs_folded", "Pairs folded so far.")
	r.GaugeFunc("sweepd_pairs_folded", func() float64 {
		st.mu.Lock()
		defer st.mu.Unlock()
		return float64(st.folded)
	})
	r.Describe("sweepd_shards", "Shards in the plan.")
	r.GaugeFunc("sweepd_shards", func() float64 { return float64(d.plan.Shards) })
	r.Describe("sweepd_shards_done", "Shards whose stripe is fully folded.")
	r.GaugeFunc("sweepd_shards_done", func() float64 {
		st.mu.Lock()
		defer st.mu.Unlock()
		return float64(st.done)
	})
	r.Describe("sweepd_attempts_inflight", "Shard attempts running right now.")
	r.GaugeFunc("sweepd_attempts_inflight", func() float64 {
		st.mu.Lock()
		defer st.mu.Unlock()
		n := 0
		for _, lv := range st.live {
			n += len(lv)
		}
		return float64(n)
	})
}

// Registry returns the registry the driver's metrics live on.
func (d *Driver) Registry() *obs.Registry { return d.reg }

func (d *Driver) logf(format string, args ...any) {
	if d.plan.Log != nil {
		d.plan.Log(format, args...)
	}
}

// attempt is one live (or finished) execution of a shard job.
type attempt struct {
	shard, n int
	start    time.Time
	ctx      context.Context
	cancel   context.CancelFunc
	reissued bool // a straggler duplicate has already been issued for it
}

// event is a finished attempt, reported by a pool worker.
type event struct {
	at  *attempt
	err error
	dur time.Duration
}

// state is the fold: every field is guarded by mu. Worker goroutines
// touch it only through fold(); the scheduling fields (attempts, live,
// failures, durations) belong to the Run loop but live here so the
// straggler check and fold-side cancellation see one consistent view.
type state struct {
	mu        sync.Mutex
	results   []census.PairResult // slot per pair index
	have      []bool
	folded    int   // pairs folded so far (== count of have)
	remaining []int // per shard, pairs not yet folded
	stripe    []int // per shard, total pairs in the stripe
	doneShard []bool
	done      int          // completed shards
	failures  []int        // failed attempts per shard
	issued    []int        // attempts issued per shard (numbering)
	reissues  []int        // straggler re-issues per shard
	live      [][]*attempt // running attempts per shard
	// durations holds one clean wall time per completed shard (timed
	// marks which shards contributed; wall keeps the same sample by
	// shard for Progress). One sample per shard, not per attempt: a
	// straggler race can finish both siblings of one shard cleanly, and
	// two samples from a single shard must not pretend to be a
	// fleet-wide median.
	durations []time.Duration
	wall      []time.Duration
	timed     []bool
}

// fold validates one record and folds it into the merged result set.
// shard is the stripe the record must belong to, or -1 for resume
// records (any stripe). Duplicates are discarded: evaluation is
// deterministic, so the first record for a pair is as good as any.
func (d *Driver) fold(st *state, r *census.PairResult, shard int, notify bool) error {
	n := len(d.specs)
	if r.Index < 0 || r.Index >= d.space {
		d.rejectedRecords.Inc()
		return fmt.Errorf("driver: record index %d outside pair space of %d", r.Index, d.space)
	}
	if shard >= 0 && r.Index%d.plan.Shards != shard {
		d.rejectedRecords.Inc()
		return fmt.Errorf("driver: record %d does not belong to shard %d/%d", r.Index, shard, d.plan.Shards)
	}
	if g, h := d.specs[r.Index/n], d.specs[r.Index%n]; r.Guest != g || r.Host != h {
		d.rejectedRecords.Inc()
		return fmt.Errorf("driver: record %d names pair %s -> %s, enumeration says %s -> %s",
			r.Index, r.Guest, r.Host, g, h)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.have[r.Index] {
		d.duplicateRecords.Inc()
		return nil
	}
	st.have[r.Index] = true
	st.folded++
	d.foldedRecords.Inc()
	st.results[r.Index] = *r
	if notify && d.plan.OnResult != nil {
		d.plan.OnResult(&st.results[r.Index])
	}
	s := r.Index % d.plan.Shards
	st.remaining[s]--
	if st.remaining[s] == 0 {
		d.completeShardLocked(st, s)
	}
	return nil
}

// completeShardLocked marks a shard's stripe fully folded and cancels
// its redundant live attempts. Callers hold st.mu.
func (d *Driver) completeShardLocked(st *state, shard int) {
	st.doneShard[shard] = true
	st.done++
	for _, at := range st.live[shard] {
		at.cancel()
	}
	if d.plan.OnShardDone != nil {
		d.plan.OnShardDone(shard, st.done, d.plan.Shards)
	}
}

// Run executes the plan and returns the merged census. The result is
// normalized exactly like census.Merge output (shard 0/1, aggregates
// recounted), so for a given template it is byte-for-byte the artifact
// an unsharded census.Run would have produced.
func (d *Driver) Run(ctx context.Context) (*census.Census, error) {
	start := d.now()
	m := d.plan.Shards
	st := d.st
	// Shards beyond the pair space have empty stripes: complete now,
	// before resume, so their completions are reported exactly once.
	st.mu.Lock()
	for s := 0; s < m; s++ {
		if st.remaining[s] == 0 {
			d.completeShardLocked(st, s)
		}
	}
	st.mu.Unlock()
	for i := range d.plan.Resume {
		if err := d.fold(st, &d.plan.Resume[i], -1, false); err != nil {
			return nil, fmt.Errorf("driver: resume: %v", err)
		}
	}
	if len(d.plan.Resume) > 0 {
		st.mu.Lock()
		resumed, done := len(d.plan.Resume), st.done
		st.mu.Unlock()
		d.logf("resume: %d pairs recovered, %d/%d shards already complete", resumed, done, m)
	}

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	// Attempts are bounded: per shard, 1 initial + retries + one
	// straggler re-issue per preceding attempt — 2·(retries+1) covers
	// it. The queues are sized so neither the Run loop nor a pool
	// worker ever blocks sending into them.
	capacity := m*2*(d.retries+1) + d.plan.Workers + 1
	jobs := make(chan *attempt, capacity)
	events := make(chan event, capacity)
	retries := make(chan int, capacity)

	var wg sync.WaitGroup
	for w := 0; w < d.plan.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for at := range jobs {
				atCtx, job := d.jobFor(st, at)
				begin := d.now()
				err := d.plan.Worker.Run(atCtx, job, func(r census.PairResult) error {
					return d.fold(st, &r, at.shard, true)
				})
				dur := d.now().Sub(begin)
				d.attemptSeconds.Observe(dur.Seconds())
				events <- event{at: at, err: err, dur: dur}
			}
		}()
	}
	stop := func() {
		cancelRun()
		close(jobs)
		wg.Wait()
	}

	issue := func(s int) {
		st.mu.Lock()
		if st.doneShard[s] {
			st.mu.Unlock()
			return
		}
		atCtx, cancel := context.WithCancel(runCtx)
		at := &attempt{shard: s, n: st.issued[s], start: d.now(), ctx: atCtx, cancel: cancel}
		st.issued[s]++
		st.live[s] = append(st.live[s], at)
		st.mu.Unlock()
		d.attempts.Inc()
		jobs <- at
	}
	for s := 0; s < m; s++ {
		if st.remaining[s] > 0 {
			issue(s)
		}
	}

	ticker := time.NewTicker(d.stragglerIv)
	defer ticker.Stop()
	var timers []*time.Timer
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
	}()

	for {
		st.mu.Lock()
		done := st.done
		st.mu.Unlock()
		if done == m {
			break
		}
		select {
		case <-ctx.Done():
			stop()
			return nil, ctx.Err()
		case s := <-retries:
			issue(s)
		case <-ticker.C:
			for _, s := range d.stragglers(st) {
				d.logf("shard %d: straggling attempt re-issued", s)
				issue(s)
			}
		case ev := <-events:
			if fatal := d.handleEvent(st, ev, retries, &timers); fatal != nil {
				stop()
				return nil, fatal
			}
		}
	}
	stop()
	// The attempts that finished the last stripes may have reported
	// after the loop saw every shard done; the workers have exited, so
	// their events are all buffered. Account for them, or Progress would
	// show those attempts running after Run returns. Every shard is
	// done, so handleEvent only does bookkeeping and returns nil.
	close(events)
	for ev := range events {
		_ = d.handleEvent(st, ev, retries, &timers)
	}

	merged, err := census.Merge(&census.Census{Header: d.plan.Config.StreamHeader().Header, Results: st.results})
	if err != nil {
		// Unreachable if the fold is correct: every stripe was counted
		// down to zero before we got here.
		return nil, fmt.Errorf("driver: final merge: %v", err)
	}
	merged.Elapsed = d.now().Sub(start)
	return merged, nil
}

// jobFor builds the shard-ready job for an attempt. The Skip closure
// reads the live fold, so a retry never re-evaluates pairs an earlier
// attempt already delivered.
func (d *Driver) jobFor(st *state, at *attempt) (context.Context, Job) {
	cfg := d.plan.Config
	cfg.Shard, cfg.Shards = at.shard, d.plan.Shards
	cfg.Skip = func(i int) bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return i >= 0 && i < len(st.have) && st.have[i]
	}
	return at.ctx, Job{Config: cfg, Shard: at.shard, Shards: d.plan.Shards, Attempt: at.n}
}

// handleEvent processes one finished attempt: success bookkeeping, or
// failure accounting with backoff-scheduled retries. A non-nil return
// aborts the run.
func (d *Driver) handleEvent(st *state, ev event, retries chan<- int, timers *[]*time.Timer) error {
	s := ev.at.shard
	st.mu.Lock()
	// Drop the attempt from the live list.
	lv := st.live[s]
	for i, at := range lv {
		if at == ev.at {
			st.live[s] = append(lv[:i], lv[i+1:]...)
			break
		}
	}
	shardDone := st.doneShard[s]
	if shardDone {
		// The stripe is covered; this attempt either finished it or
		// lost a straggler race. Record the shard's first clean wall
		// time for the straggler median and move on.
		if ev.err == nil && !st.timed[s] {
			st.timed[s] = true
			st.durations = append(st.durations, ev.dur)
			st.wall[s] = ev.dur
		}
		st.mu.Unlock()
		return nil
	}
	missing := st.remaining[s]
	st.failures[s]++
	failures := st.failures[s]
	st.mu.Unlock()
	d.attemptFailures.Inc()

	err := ev.err
	if err == nil {
		// A clean return that left stripe pairs unfolded is a dropping
		// worker — as much a failure as a crash.
		err = fmt.Errorf("worker returned cleanly with %d pairs of its stripe missing", missing)
	}
	if failures > d.retries {
		return fmt.Errorf("driver: shard %d/%d failed %d time(s), retries exhausted: %v", s, d.plan.Shards, failures, err)
	}
	delay := d.backoff << (failures - 1)
	d.retriesScheduled.Inc()
	d.logf("shard %d: attempt %d failed (%v); retrying in %s (%d/%d retries used)",
		s, ev.at.n, err, delay, failures, d.retries)
	t := time.AfterFunc(delay, func() { retries <- s })
	*timers = append(*timers, t)
	return nil
}

// stragglers returns the shards whose single live attempt has run past
// StragglerFactor × the median completed-shard wall time. Each attempt
// is re-issued at most once, and the cutoff arms only once at least
// two distinct shards have completed cleanly: a median over a 0- or
// 1-sample set says nothing about the fleet, and re-issuing (then
// cancelling) a healthy lone worker off one shard's wall time would
// turn the policy into a self-inflicted fault. durations is deduped
// per shard (handleEvent), so a straggler race finishing both siblings
// of one shard cannot arm the cutoff by itself.
func (d *Driver) stragglers(st *state) []int {
	if d.plan.StragglerFactor <= 0 {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.durations) < 2 {
		return nil
	}
	ds := append([]time.Duration(nil), st.durations...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	cutoff := time.Duration(d.plan.StragglerFactor * float64(ds[len(ds)/2]))
	var out []int
	for s := 0; s < d.plan.Shards; s++ {
		if st.doneShard[s] || len(st.live[s]) != 1 {
			continue
		}
		at := st.live[s][0]
		if !at.reissued && d.now().Sub(at.start) > cutoff {
			at.reissued = true
			st.reissues[s]++
			d.stragglerReissues.Inc()
			out = append(out, s)
		}
	}
	return out
}
