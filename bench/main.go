// Command bench is the repository's benchmark of record. It runs one of
// four workloads — sweep, search, fleet, serve — in this process, timing
// calls into each engine's public functions and hooks from outside, and
// prints the metrics BENCHMARK.json declares:
//
//	bash bench/run.sh --workload sweep --seed 1 --seconds 25 --trace 0
//
// A run sets the workload up three times (set-up time is the median),
// measures for --seconds, checks the outputs, and prints as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// window alternates untraced and traced slices and the metrics are the
// per-layer ones.
// The line before it holds workload-specific diagnostics.
//
// --repeat N runs the workload N times in fresh processes, with seeds
// seed .. seed+N-1, and prints each metric's quartiles and spread.
//
// README.md describes the workloads and the metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

const (
	// setupRuns is how many times a run sets its workload up.
	setupRuns = 3
	// tracedSlices is how many untraced and traced slices a traced run
	// alternates.
	tracedSlices = 10
)

// workload is one benchmark workload. main calls setup setupRuns times
// (closing in between), then measure, then — on a traced run — layers,
// then check, then close.
type workload interface {
	// setup builds the inputs and the engine state and runs the untimed
	// warm-up.
	setup() error
	// measure runs the timed window; with a tracer it records spans.
	measure(window time.Duration, tr *tracer) (*sample, error)
	// layers fills the per-layer counts and diagnostics of the traced
	// window and returns the workload's placements for the netsim replay.
	layers(tr *tracer, m, diag map[string]float64) ([]netsimCase, error)
	// check runs the untimed output checks that need the whole window.
	check(s *sample) error
	close()
	// artifactDigest hashes the artifacts the run produced.
	artifactDigest() [32]byte
}

// scale sizes the workloads.
type scale struct {
	sweepSize, sweepWarm, sweepMaxDim int
	searches                          []searchPair
	fleetSize, fleetWarm, fleetMaxDim int
	hotSizes                          []int
	hotPairs                          int
	coldSizes                         []int
}

// fullScale is what the benchmark runs; a run of each workload takes
// about its --seconds plus a few seconds on two cores.
var fullScale = scale{
	sweepSize: 360, sweepWarm: 120, sweepMaxDim: 4,
	searches:  searchCycle,
	fleetSize: 120, fleetWarm: 36, fleetMaxDim: 3,
	hotSizes: []int{16, 24, 32, 36, 48, 64}, hotPairs: 256,
	coldSizes: []int{360, 720},
}

var workloads = []string{"sweep", "search", "fleet", "serve"}

func newWorkload(name string, seed int64, window time.Duration, sc scale, dir string) (workload, error) {
	switch name {
	case "sweep":
		return &sweepLoad{sc: sc}, nil
	case "search":
		return &searchLoad{sc: sc}, nil
	case "fleet":
		return &fleetLoad{sc: sc, dir: dir}, nil
	case "serve":
		return &serveLoad{sc: sc, seed: seed, dir: dir, window: window}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOutput is everything one run measured.
type runOutput struct {
	result result
	diag   map[string]float64
	digest [32]byte
	spans  *tracer
}

func run(name string, seed int64, window time.Duration, traced bool, sc scale) (*runOutput, error) {
	dir, err := os.MkdirTemp("", "bench-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w, err := newWorkload(name, seed, window, sc, dir)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var setups []time.Duration
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			w.close()
		}
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}

	values := map[string]float64{}
	diag := map[string]float64{}
	out := &runOutput{diag: diag}
	var s *sample
	if !traced {
		if s, err = w.measure(window, nil); err != nil {
			return nil, err
		}
	} else {
		// Untraced and traced slices alternate, so the machine's drift
		// cancels out of trace_overhead: the median drop in headline
		// throughput from an untraced slice to its neighbouring traced
		// one. Which of a pair runs first alternates too.
		out.spans = newTracer()
		s = &sample{}
		var drops []float64
		for i := 0; i < tracedSlices; i++ {
			var plain, traced *sample
			for k := 0; k < 2; k++ {
				tr := out.spans
				if k == i%2 {
					tr = nil
				}
				got, err := w.measure(window/(2*tracedSlices), tr)
				if err != nil {
					return nil, err
				}
				if tr == nil {
					plain = got
				} else {
					traced = got
				}
			}
			drops = append(drops, 1-traced.perSec/plain.perSec)
			s.ops = append(s.ops, traced.ops...)
			s.jobs = append(s.jobs, traced.jobs...)
			s.attempted += plain.attempted + traced.attempted
			s.failed += plain.failed + traced.failed
		}
		if err := layerMetrics(w, out.spans, values, diag); err != nil {
			return nil, err
		}
		_, values["trace_overhead"], _ = quartiles(drops)
	}
	if err := w.check(s); err != nil {
		return nil, err
	}
	if !traced {
		values["setup_s"] = quantile(setups, 0.5).Seconds()
		values["ops_per_s"] = s.perSec
		values["op_p50_ms"] = ms(quantile(s.ops, 0.5))
		values["op_p90_ms"] = ms(quantile(s.ops, 0.9))
		values["job_p50_ms"] = ms(quantile(s.jobs, 0.5))
		values["max_rss_mb"] = maxRSSMB()
	}
	diag["samples.ops"] = float64(len(s.ops))
	diag["samples.jobs"] = float64(len(s.jobs))
	diag["op_p99_ms"] = ms(quantile(s.ops, 0.99))
	diag["job_p90_ms"] = ms(quantile(s.jobs, 0.9))

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out.result = result{
		Correct:   s.failed == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s measured no %s", name, d.Name)
		}
		out.result.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	out.digest = w.artifactDigest()
	return out, nil
}

// layerMetrics fills every per-layer metric of a traced window: 0 for the
// counts of layers the workload never enters, measured values otherwise.
func layerMetrics(w workload, tr *tracer, m, diag map[string]float64) error {
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	cases, err := w.layers(tr, m, diag)
	if err != nil {
		return err
	}
	for layer, share := range tr.shares() {
		m[layer+".share"] = share
	}
	m["embed.construct_us_p50"] = us(quantile(tr.durations(embedConstruct), 0.5))
	m["trace.spans"] = float64(tr.n.Load())
	return replayNetsim(cases, m)
}

// logf reports progress and failed checks on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func main() {
	name := flag.String("workload", "", "workload to run: sweep, search, fleet or serve")
	seed := flag.Int64("seed", 1, "seed of the generated inputs (only serve traffic depends on it)")
	seconds := flag.Float64("seconds", 25, "length of the timed window")
	trace := flag.Int("trace", 0, "1 traces every other slice of the window and prints the per-layer metrics")
	spans := flag.String("spans", "", "with -trace 1, write the traced spans to this JSON file")
	repeat := flag.Int("repeat", 0, "run the workload this many times in fresh processes and summarize")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		logf("-trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		logf("-seconds must be positive")
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(os.Stdout, *name, *seed, *seconds, *trace, *repeat); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	logf("%s: seed %d, %gs window, trace %d, GOMAXPROCS %d", *name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	out, err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, fullScale)
	if err != nil {
		logf("%s: %v", *name, err)
		os.Exit(1)
	}
	if *spans != "" && out.spans != nil {
		if err := out.spans.writeFile(*spans); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
	}
	if err := printOutput(os.Stdout, out); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

// printOutput prints the diagnostics line and, last, the result line.
func printOutput(w io.Writer, out *runOutput) error {
	diag, err := json.Marshal(map[string]any{"diagnostics": out.diag})
	if err != nil {
		return err
	}
	res, err := json.Marshal(out.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", diag, res)
	return err
}

// lastResult parses the result line of a run's standard output.
func lastResult(stdout []byte) (*result, error) {
	out := bytes.TrimSpace(stdout)
	if len(out) == 0 {
		return nil, errors.New("run printed nothing")
	}
	var r result
	if err := json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &r); err != nil {
		return nil, fmt.Errorf("result line: %v", err)
	}
	return &r, nil
}
