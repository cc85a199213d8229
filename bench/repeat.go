package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// repeatRuns runs a workload n times, each in a fresh process with its
// own seed, and prints every metric's quartiles and spread — the
// distance between the quartiles as a share of the median. A metric
// whose spread exceeds a third of its bound is flagged "noisy", one whose
// spread exceeds the bound "over": lengthen the workload's run rather
// than widen the bound.
func repeatRuns(w io.Writer, name string, seed int64, seconds float64, trace, n int) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	failed := 0
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe,
			"-workload", name,
			"-seed", strconv.FormatInt(seed+int64(i), 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %v", i+1, err)
		}
		r, err := lastResult(stdout)
		if err != nil {
			return fmt.Errorf("run %d: %v", i+1, err)
		}
		failed += r.Failed
		for k, v := range r.Metrics {
			values[k] = append(values[k], v.Value)
		}
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	fmt.Fprintf(w, "%s: %d runs, %d failed operations\n", name, n, failed)
	fmt.Fprintf(w, "%-28s %14s %14s %14s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, d := range defs {
		q1, med, q3 := quartiles(values[d.Name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		flag := ""
		switch {
		case d.Bound > 0 && spread > d.Bound:
			flag = "over"
		case d.Bound > 0 && spread > d.Bound/3:
			flag = "noisy"
		}
		fmt.Fprintf(w, "%-28s %14.6g %14.6g %14.6g %8.4f %6.3g %s\n", d.Name+" ("+d.Unit+")", q1, med, q3, spread, d.Bound, flag)
	}
	return nil
}
