package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
	"time"
)

// toyScale sizes every workload to run in well under a second.
var toyScale = scale{
	sweepSize: 24, sweepWarm: 12, sweepMaxDim: 3,
	searches:  searchCycle[:2],
	fleetSize: 24, fleetWarm: 12, fleetMaxDim: 3,
	hotSizes: []int{8, 12}, hotPairs: 16,
	coldSizes: []int{24},
}

const toyWindow = 400 * time.Millisecond

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmark(t)
	same := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(code))
		}
		for i := range file {
			if file[i] != code[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, file[i], code[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, w.Name, workloads[i])
		}
	}
}

func toyRun(t *testing.T, name string, seed int64, traced bool) *runOutput {
	t.Helper()
	out, err := run(name, seed, toyWindow, traced, toyScale)
	if err != nil {
		t.Fatalf("%s (traced %t): %v", name, traced, err)
	}
	return out
}

// TestWorkloads runs every workload at toy size, untraced and traced:
// every declared metric is printed with its unit, no operation fails,
// and tracing leaves the artifacts byte-identical.
func TestWorkloads(t *testing.T) {
	b := readBenchmark(t)
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			plain := toyRun(t, name, 1, false)
			traced := toyRun(t, name, 1, true)
			for _, c := range []struct {
				out  *runOutput
				defs []metricDef
			}{{plain, b.EndToEnd}, {traced, b.PerLayer}} {
				var buf bytes.Buffer
				if err := printOutput(&buf, c.out); err != nil {
					t.Fatal(err)
				}
				r, err := lastResult(buf.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("error rate: %d of %d operations failed", r.Failed, r.Attempted)
				}
				if len(r.Metrics) != len(c.defs) {
					t.Errorf("printed %d metrics, want %d", len(r.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					if v, ok := r.Metrics[d.Name]; !ok || v.Unit != d.Unit {
						t.Errorf("metric %s: printed %+v (present %t), want unit %s", d.Name, v, ok, d.Unit)
					}
				}
			}
			if plain.digest != traced.digest {
				t.Error("traced and untraced runs produced different artifacts")
			}
		})
	}
}

// TestSeedChangesOnlyServeTraffic checks that the seed changes the
// generated serve traffic and nothing else.
func TestSeedChangesOnlyServeTraffic(t *testing.T) {
	for _, name := range workloads {
		if a, b := toyRun(t, name, 1, false), toyRun(t, name, 2, false); a.digest != b.digest {
			t.Errorf("%s: seeds 1 and 2 produced different artifacts", name)
		}
	}
	var traffic [2][32]byte
	var hot, cold [2][]string
	for i := range traffic {
		w := &serveLoad{sc: toyScale, seed: int64(i + 1), dir: t.TempDir(), window: toyWindow}
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		traffic[i] = w.trafficDigest()
		for _, p := range w.hot {
			hot[i] = append(hot[i], p.place)
		}
		for _, p := range w.cold {
			cold[i] = append(cold[i], p.place)
		}
		w.close()
	}
	if traffic[0] == traffic[1] {
		t.Error("seeds 1 and 2 generated the same serve traffic")
	}
	if !slices.Equal(hot[0], hot[1]) {
		t.Errorf("the hot pairs depend on the seed: %v vs %v", hot[0], hot[1])
	}
	slices.Sort(cold[0])
	slices.Sort(cold[1])
	if !slices.Equal(cold[0], cold[1]) {
		t.Errorf("the cold pool's pairs depend on the seed, not only their order: %v vs %v", cold[0], cold[1])
	}
}

// trafficDigest hashes the generated traffic: the cold pool's order and
// the first requests of every client's stream.
func (w *serveLoad) trafficDigest() [sha256.Size]byte {
	h := sha256.New()
	for _, p := range w.cold {
		io.WriteString(h, p.place)
	}
	for id := 0; id < serveClients; id++ {
		rng := w.traffic(id)
		for i := 0; i < 64; i++ {
			_, path := w.next(rng)
			io.WriteString(h, path)
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}
