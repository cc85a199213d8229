package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"torusmesh/internal/census"
	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/place"
)

// spanName names what a span timed: "<layer>.<call>".
type spanName uint8

const (
	embedConstruct spanName = iota
	censusRun
	censusPair
	placeSearch
	driverRun
	driverAttempt
	driverFold
	driverJournal
	driverArtifact
	serveHandle
	httpRequest
)

var spanNames = [...]string{
	embedConstruct: "embed.construct",
	censusRun:      "census.run",
	censusPair:     "census.pair",
	placeSearch:    "place.search",
	driverRun:      "driver.run",
	driverAttempt:  "driver.attempt",
	driverFold:     "driver.fold",
	driverJournal:  "driver.journal",
	driverArtifact: "driver.artifact",
	serveHandle:    "serve.handle",
	httpRequest:    "http.request",
}

func (n spanName) String() string { return spanNames[n] }

// layers are the span name prefixes the per-layer shares split time
// between; http is the client and the transport around serve.
var layers = []string{"embed", "census", "place", "driver", "serve", "http"}

// span is one timed call into a layer, recorded by the benchmark around
// a public function or hook of that layer. parent is the span of the
// call that caused this one (0 for a root). Times are nanoseconds since
// the tracer's origin. The struct holds no pointers, so the collector
// never scans the span store.
type span struct {
	id, parent int64
	start, end int64
	name       spanName
}

const (
	chunkLen  = 1 << 14
	maxChunks = 1 << 10
)

// tracer keeps the spans of one traced window in memory. Recording
// claims a slot with one atomic add, so the clients, the server and the
// engines' workers never wait on each other to record; the spans are
// read only after every goroutine of the window has finished.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	n      atomic.Int64
	chunks [maxChunks]atomic.Pointer[[chunkLen]span]
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) slot(i int) *span {
	c := &t.chunks[i/chunkLen]
	ch := c.Load()
	if ch == nil {
		c.CompareAndSwap(nil, new([chunkLen]span))
		ch = c.Load()
	}
	return &ch[i%chunkLen]
}

// record stores a finished span and returns its index, or -1 once the
// store is full.
func (t *tracer) record(id, parent int64, name spanName, start, end time.Time) int {
	i := int(t.n.Add(1) - 1)
	if i >= chunkLen*maxChunks {
		return -1
	}
	*t.slot(i) = span{id: id, parent: parent, start: int64(start.Sub(t.origin)), end: int64(end.Sub(t.origin)), name: name}
	return i
}

// adopt re-parents spans recorded before their parent existed.
func (t *tracer) adopt(idx []int, parent int64) {
	for _, i := range idx {
		if i >= 0 {
			t.slot(i).parent = parent
		}
	}
}

// all returns the recorded spans.
func (t *tracer) all() []span {
	n := min(int(t.n.Load()), chunkLen*maxChunks)
	out := make([]span, n)
	for i := range out {
		out[i] = *t.slot(i)
	}
	return out
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name spanName) []time.Duration {
	var out []time.Duration
	for _, s := range t.all() {
		if s.name == name {
			out = append(out, time.Duration(s.end-s.start))
		}
	}
	return out
}

// perUnit returns how many spans named name there are per span named unit.
func (t *tracer) perUnit(name, unit spanName) float64 {
	if n := len(t.durations(unit)); n > 0 {
		return float64(len(t.durations(name))) / float64(n)
	}
	return 0
}

// shares splits the spans' total self time between the layers. A span's
// self time is its duration minus the part of its interval its children
// cover; children that ran in parallel cover an interval once.
func (t *tracer) shares() map[string]float64 {
	spans := t.all()
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := map[string]float64{}
	total := 0.0
	for _, s := range spans {
		d := float64(s.end - s.start - covered(kids[s.id], s.start, s.end))
		layer, _, _ := strings.Cut(s.name.String(), ".")
		self[layer] += d
		total += d
	}
	out := map[string]float64{}
	for _, l := range layers {
		if total > 0 {
			out[l] = self[l] / total
		}
	}
	return out
}

// covered returns how much of [lo, hi] the union of the intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	end := lo
	for _, x := range iv {
		a, b := max(x[0], end), min(x[1], hi)
		if b > a {
			sum += b - a
			end = b
		}
	}
	return sum
}

// writeFile saves the spans as a JSON array.
func (t *tracer) writeFile(path string) error {
	type jsonSpan struct {
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	var out []jsonSpan
	for _, s := range t.all() {
		out = append(out, jsonSpan{s.id, s.parent, s.name.String(), s.start, s.end})
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// orphans holds spans recorded before the span of the census pair they
// worked for exists: a pair's span is rebuilt from its record, which
// arrives only after its construction and placement search ran.
type orphans struct {
	mu     sync.Mutex
	byPair map[string][]int
}

func newOrphans() *orphans { return &orphans{byPair: map[string][]int{}} }

func pairKey(g, h grid.Spec) string { return g.String() + "->" + h.String() }

func (o *orphans) add(pair string, idx int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.byPair[pair] = append(o.byPair[pair], idx)
}

func (o *orphans) take(pair string) []int {
	o.mu.Lock()
	defer o.mu.Unlock()
	idx := o.byPair[pair]
	delete(o.byPair, pair)
	return idx
}

// construct times one construction as an embed.construct span under
// parent. With o set, the span is filed under its pair instead, for the
// pair's span to adopt.
func (t *tracer) construct(parent int64, o *orphans, g, h grid.Spec, build func() (*embed.Embedding, error)) (*embed.Embedding, error) {
	start := time.Now()
	e, err := build()
	idx := t.record(t.newID(), parent, embedConstruct, start, time.Now())
	if o != nil {
		o.add(pairKey(g, h), idx)
	}
	return e, err
}

// censusEmbed wraps a census construction in spans filed under the pair.
func (t *tracer) censusEmbed(fn census.EmbedFunc, o *orphans) census.EmbedFunc {
	return func(g, h grid.Spec) (*embed.Embedding, error) {
		return t.construct(0, o, g, h, func() (*embed.Embedding, error) { return fn(g, h) })
	}
}

// pairDone records the span of a census pair, rebuilt from its record's
// Wall time as the record arrives, and adopts the pair's orphans.
func (t *tracer) pairDone(r *census.PairResult, parent int64, o *orphans) {
	end := time.Now()
	id := t.newID()
	t.record(id, parent, censusPair, end.Add(-r.Wall), end)
	t.adopt(o.take(r.Guest+"->"+r.Host), id)
}

// strategies wraps every construction of a search's strategies in spans
// under the search's span. Names are kept, so the search's Spec — and
// its artifact — do not change.
func (t *tracer) strategies(ss []place.Strategy, parent int64) []place.Strategy {
	return wrapStrategies(ss, func() *tracer { return t }, parent)
}

// wrapStrategies wraps the constructions of ss in embed.construct spans
// under parent whenever current returns a tracer.
func wrapStrategies(ss []place.Strategy, current func() *tracer, parent int64) []place.Strategy {
	out := make([]place.Strategy, len(ss))
	for i, s := range ss {
		embedFn := s.Embed
		s.Embed = func(g, h grid.Spec) (*embed.Embedding, error) {
			t := current()
			if t == nil {
				return embedFn(g, h)
			}
			return t.construct(parent, nil, g, h, func() (*embed.Embedding, error) { return embedFn(g, h) })
		}
		if mid := s.EmbedMidRot; mid != nil {
			s.EmbedMidRot = func(g, h grid.Spec, rot []int) (*embed.Embedding, error) {
				t := current()
				if t == nil {
					return mid(g, h, rot)
				}
				return t.construct(parent, nil, g, h, func() (*embed.Embedding, error) { return mid(g, h, rot) })
			}
		}
		out[i] = s
	}
	return out
}
