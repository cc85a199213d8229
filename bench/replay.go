package main

import (
	"fmt"
	"math/rand"
	"time"

	"torusmesh/internal/core"
	"torusmesh/internal/grid"
	"torusmesh/internal/netsim"
	"torusmesh/internal/taskgraph"
)

// netsimCase is one of a workload's own placements. The engines route
// placements inside calls the benchmark cannot wrap, so a traced run
// replays them through netsim's public functions after its window.
type netsimCase struct {
	guest, host grid.Spec
	table       []int
}

// maxCases bounds how many placements a replay routes.
const maxCases = 64

// baselineCases builds the paper-baseline placement (core.Embed) of up
// to maxCases pairs spread evenly over pairs.
func baselineCases(pairs [][2]grid.Spec) ([]netsimCase, error) {
	step := max(1, len(pairs)/maxCases)
	var out []netsimCase
	for i := 0; i < len(pairs) && len(out) < maxCases; i += step {
		g, h := pairs[i][0], pairs[i][1]
		e, err := core.Embed(g, h)
		if err != nil {
			continue // no construction covers the pair: nothing to route
		}
		out = append(out, netsimCase{g, h, e.Table()})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no embeddable pair to replay")
	}
	return out, nil
}

// replayNetsim times netsim on the cases: CongestionHops (the census
// congestion pass) on every case, and Congestion, NewLoadState and Swap
// (the search's scoring and annealing kernels) on the case with the most
// guest edges.
func replayNetsim(cases []netsimCase, m map[string]float64) error {
	var per []time.Duration
	var nw *netsim.Network
	var tg *taskgraph.Graph
	var p netsim.Placement
	for _, c := range cases {
		cnw, ctg, cp := netsim.New(c.host), taskgraph.FromSpec(c.guest), netsim.Placement(c.table)
		start := time.Now()
		if _, _, err := netsim.CongestionHops(cnw, ctg, cp); err != nil {
			return fmt.Errorf("replay %s -> %s: %v", c.guest, c.host, err)
		}
		per = append(per, time.Since(start))
		if tg == nil || len(ctg.Edges) > len(tg.Edges) {
			nw, tg, p = cnw, ctg, cp
		}
	}
	m["netsim.congestion_us_p50"] = us(quantile(per, 0.5))

	const reps = 5
	var cong, init []time.Duration
	var ls *netsim.LoadState
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := netsim.Congestion(nw, tg, p); err != nil {
			return err
		}
		cong = append(cong, time.Since(start))
		start = time.Now()
		var err error
		if ls, err = netsim.NewLoadState(nw, tg, p); err != nil {
			return err
		}
		init = append(init, time.Since(start))
	}
	m["netsim.congestion_ms"] = ms(quantile(cong, 0.5))
	m["netsim.loadstate_init_ms"] = ms(quantile(init, 0.5))

	const swaps = 20000
	rng := rand.New(rand.NewSource(1))
	n := tg.N
	start := time.Now()
	for i := 0; i < swaps; i++ {
		u, v := rng.Intn(n), rng.Intn(n-1)
		if v >= u {
			v++
		}
		ls.Swap(u, v)
	}
	m["netsim.swap_ns"] = float64(time.Since(start).Nanoseconds()) / swaps
	return nil
}
