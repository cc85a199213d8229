package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef is one metric of BENCHMARK.json. The benchmark computes every
// value in the unit named here; bench_test.go asserts that the two lists
// agree entry for entry.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run prints. Every workload
// measures every one of them; README.md maps each to what it means on
// each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.2},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
}

// perLayer are the metrics a traced run prints. Shares split the traced
// window's span self time between layers; times are measured on every
// workload; counts are per unit of work (a pass, a cycle) where the
// workload has one, and 0 on workloads that never enter the layer.
var perLayer = []metricDef{
	layerMetric("embed.share", "ratio", "lower"),
	layerMetric("census.share", "ratio", "lower"),
	layerMetric("place.share", "ratio", "lower"),
	layerMetric("driver.share", "ratio", "lower"),
	layerMetric("serve.share", "ratio", "lower"),
	layerMetric("http.share", "ratio", "lower"),
	layerMetric("embed.construct_us_p50", "us", "lower"),
	layerMetric("embed.constructs", "count", "lower"),
	layerMetric("netsim.congestion_us_p50", "us", "lower"),
	layerMetric("netsim.congestion_ms", "ms", "lower"),
	layerMetric("netsim.loadstate_init_ms", "ms", "lower"),
	layerMetric("netsim.swap_ns", "ns", "lower"),
	layerMetric("census.pairs", "count", "higher"),
	layerMetric("census.embeddable", "count", "higher"),
	layerMetric("census.construct_failures", "count", "lower"),
	layerMetric("census.verify_failures", "count", "lower"),
	layerMetric("place.searches", "count", "higher"),
	layerMetric("place.candidates", "count", "lower"),
	layerMetric("place.capped", "count", "lower"),
	layerMetric("place.pruned", "count", "higher"),
	layerMetric("place.anneal_runs", "count", "lower"),
	layerMetric("place.anneal_steps", "count", "lower"),
	layerMetric("place.anneal_win_ratio", "ratio", "higher"),
	layerMetric("driver.attempts", "count", "lower"),
	layerMetric("driver.failures", "count", "lower"),
	layerMetric("driver.journal_bytes", "bytes", "lower"),
	layerMetric("serve.requests", "count", "higher"),
	layerMetric("serve.searches", "count", "higher"),
	layerMetric("serve.deduped", "count", "higher"),
	layerMetric("serve.cache_files", "count", "higher"),
	layerMetric("serve.cache_bytes", "bytes", "lower"),
	layerMetric("serve.queue_depth_max", "count", "lower"),
	layerMetric("trace.spans", "count", "lower"),
	layerMetric("trace_overhead", "ratio", "lower"),
}

func layerMetric(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

// sample is what one timed window of a workload measured.
type sample struct {
	// perSec is the headline throughput: pairs, searches or requests
	// per second.
	perSec float64
	// ops are per-operation latencies (a pair, a search, a request);
	// jobs are per-job latencies (a pass, a cycle, a cold pair's upgrade).
	ops, jobs []time.Duration
	// attempted and failed count operations, a failed output check
	// counting every operation it covers as failed.
	attempted, failed int
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for an empty slice. xs is sorted in place.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	frac := pos - float64(lo)
	return xs[lo] + time.Duration(frac*float64(xs[hi]-xs[lo]))
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (its
// default "exclusive" method), so -repeat reports the same spread a
// script over the printed results would. xs is sorted in place and must
// hold at least two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
