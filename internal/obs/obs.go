// Package obs is the cross-engine observability spine: a small,
// dependency-free metrics subsystem every engine instruments itself
// through. A Registry holds named metrics — monotone Counters, settable
// Gauges, callback Gauges, and fixed-bucket Histograms — and renders
// them in two exposition formats: Prometheus text (the /metrics
// endpoint of cmd/placed and cmd/sweepd) and a versioned JSON snapshot
// (/statusz). Opt-in net/http/pprof wiring rides along on the same
// Mount helper, so every long-running CLI grows profiling and metrics
// with one call.
//
// The design rule that shapes the API is "hot paths stay hot": every
// mutation (Counter.Add, Gauge.Set, Histogram.Observe) is a lock-free
// atomic with zero allocations, gated by the allocs tests next to this
// file, so the annealing move loop and the routing inner loops can be
// instrumented without losing their zero-alloc steady state. All the
// locking lives at registration (once, at startup) and at export
// (rare, human-paced).
//
// Exposition is deterministic: metrics sort by (name, rendered
// labels), label keys sort within a metric, and numbers render in one
// canonical form — which is what lets end-to-end tests pin an exact
// /metrics fixture for a known request sequence.
//
// Naming scheme (documented in ARCHITECTURE.md): every metric is
// prefixed by the engine that owns it (placed_, sweepd_, place_,
// census_, embed_), counters end in _total, histograms of durations
// end in _seconds, and gauges name the instantaneous quantity bare
// (e.g. placed_search_queue_depth). Variants of one logical metric use
// labels, not name suffixes: placed_tier_served_total{tier="baseline"}.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric. Variants of one
// logical metric (tiers, endpoints, shards) share a name and differ in
// labels.
type Label struct{ Key, Value string }

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing integer metric. All methods
// are lock-free atomics safe for concurrent use; Add and Inc never
// allocate.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a caller bug; they are applied as
// given so the bug is visible rather than masked).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable integer metric. All methods are lock-free
// atomics safe for concurrent use and never allocate.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution metric. Observe is a
// lock-free atomic scan over the (small, fixed) bucket bounds with no
// allocations. Bounds are upper bucket edges in increasing order; an
// implicit +Inf bucket catches the tail, and exposition renders the
// Prometheus cumulative form.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; counts[i] = observations in (bounds[i-1], bounds[i]]
	sum    atomic.Uint64  // float64 bits, CAS-updated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the bucket upper edges (excluding the implicit +Inf).
// The returned slice is shared; callers must not modify it.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and growing by factor — the usual shape for latencies.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefDurationBuckets is the default bucket set for _seconds histograms:
// 1ms to ~4min in powers of 4 — wide enough for both HTTP latencies and
// background search wall times.
func DefDurationBuckets() []float64 { return ExpBuckets(0.001, 4, 10) }

// kind discriminates the metric types in one registry slot.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// metric is one registered slot: a name, its labels, and exactly one
// of the typed instruments. Instruments are created under the
// registry mutex and immutable afterwards, so exporters read them
// without holding it; the callback of a GaugeFunc is the one field a
// re-registration may replace, hence the atomic pointer.
type metric struct {
	name     string
	labels   string            // canonical `key="value",...` rendering, "" for none
	labelSet map[string]string // the labels as registered, nil for none
	kind     kind

	counter *Counter
	gauge   *Gauge
	fn      atomic.Pointer[func() float64]
	hist    *Histogram
}

// gauge reads the live value of a callback gauge.
func (m *metric) gaugeValue() float64 { return (*m.fn.Load())() }

// Registry is a named set of metrics. Registration methods are
// get-or-create: asking twice for the same (name, labels) identity
// returns the same instrument, so package-level metrics and
// server-level metrics can share one registry without coordination.
// Asking for the same identity as a different kind panics — that is
// always a naming bug, and it would silently corrupt the exposition.
//
// The zero value is not usable; call NewRegistry (or use Default).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric // identity (name + labels) -> slot
	help    map[string]string  // name -> HELP text
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		metrics: map[string]*metric{},
		help:    map[string]string{},
	}
}

// defaultRegistry is the process-wide registry engine-level metrics
// (place, census, embed) register into; the long-running CLIs expose
// it so background work shows on the same /metrics page as the
// server's own counters.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// renderLabels canonicalizes a label set: keys sorted, values escaped
// the way the Prometheus text format requires.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func identity(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// lookup finds or creates the slot for an identity, enforcing kind
// consistency. init runs under the registry mutex — on the create and
// the get path both — so instrument construction and re-registration
// validation are atomic with the map access (two goroutines racing to
// register one identity must end up sharing one instrument).
func (r *Registry) lookup(name string, labels []Label, k kind, init func(m *metric)) *metric {
	ls := renderLabels(labels)
	id := identity(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.metrics[id]
	if m != nil {
		if m.kind != k {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s", id, k, m.kind))
		}
	} else {
		m = &metric{name: name, labels: ls, kind: k}
		if len(labels) > 0 {
			m.labelSet = make(map[string]string, len(labels))
			for _, l := range labels {
				m.labelSet[l.Key] = l.Value
			}
		}
		r.metrics[id] = m
	}
	init(m)
	return m
}

// Counter returns the counter registered under (name, labels),
// creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	m := r.lookup(name, labels, kindCounter, func(m *metric) {
		if m.counter == nil {
			m.counter = &Counter{}
		}
	})
	return m.counter
}

// Gauge returns the gauge registered under (name, labels), creating it
// on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	m := r.lookup(name, labels, kindGauge, func(m *metric) {
		if m.gauge == nil {
			m.gauge = &Gauge{}
		}
	})
	return m.gauge
}

// GaugeFunc registers a callback gauge: fn is read at exposition time,
// so the metric always reports the live value (uptimes, queue depths
// derived from other state). Re-registering the same identity replaces
// the callback. fn must be safe for concurrent calls.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	r.lookup(name, labels, kindGaugeFunc, func(m *metric) {
		m.fn.Store(&fn)
	})
}

// Histogram returns the histogram registered under (name, labels) with
// the given bucket upper bounds (strictly increasing; an implicit +Inf
// bucket is appended), creating it on first use. Re-registering must
// use equal bounds.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not strictly increasing: %v", name, bounds))
		}
	}
	m := r.lookup(name, labels, kindHistogram, func(m *metric) {
		if m.hist == nil {
			b := append([]float64(nil), bounds...)
			m.hist = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
			return
		}
		if len(m.hist.bounds) != len(bounds) {
			panic(fmt.Sprintf("obs: histogram %s re-registered with different buckets", name))
		}
		for i := range bounds {
			if m.hist.bounds[i] != bounds[i] {
				panic(fmt.Sprintf("obs: histogram %s re-registered with different buckets", name))
			}
		}
	})
	return m.hist
}

// Describe attaches HELP text to a metric name; the exposition emits
// it once per name.
func (r *Registry) Describe(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// sorted returns the registered slots ordered by (name, labels) — the
// deterministic exposition order — plus the help map snapshot.
func (r *Registry) sorted() ([]*metric, map[string]string) {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].labels < ms[j].labels
	})
	return ms, help
}
