package netsim

import (
	"math/rand"
	"testing"

	"torusmesh/internal/core"
	"torusmesh/internal/grid"
	"torusmesh/internal/taskgraph"
	"torusmesh/internal/testmem"
)

// The allocs/op gates of the annealing hot paths. These are regression
// tripwires, not benchmarks: a change that makes the steady-state move
// loop allocate, or lets a whole-placement measurement allocate per
// edge instead of per call, fails deterministically in CI.

// TestSwapSteadyStateAllocs: after warmup (touched-list and move-record
// growth, histogram bucket growth), a swap plus the aggregate reads of
// an acceptance decision must not allocate at all — the property that
// keeps anneal steps at ~10⁵/sec — and neither may the annealing
// pass's Propose, Commit, Revert cycle of a rejected move.
func TestSwapSteadyStateAllocs(t *testing.T) {
	nw := New(grid.TorusSpec(16, 16))
	tg := taskgraph.FromSpec(grid.MeshSpec(16, 16))
	rng := rand.New(rand.NewSource(19))
	ls, err := NewLoadState(nw, tg, Placement(rng.Perm(nw.Size())))
	if err != nil {
		t.Fatal(err)
	}
	n := tg.N
	pairs := make([][2]int, 64)
	for i := range pairs {
		u := rng.Intn(n)
		v := rng.Intn(n - 1)
		if v >= u {
			v++
		}
		pairs[i] = [2]int{u, v}
	}
	for _, p := range pairs { // warmup: grow scratch and histograms
		ls.Swap(p[0], p[1])
	}
	t.Run("swap", func(t *testing.T) {
		k := 0
		allocs := testing.AllocsPerRun(200, func() {
			p := pairs[k%len(pairs)]
			k++
			ls.Swap(p[0], p[1])
			_ = ls.Stats()
			ls.Dilation()
		})
		if allocs != 0 {
			t.Errorf("steady-state swap allocates %.1f objects/op, want 0", allocs)
		}
	})
	t.Run("propose-commit-revert", func(t *testing.T) {
		guests, hosts := make([]int32, 2), make([]int32, 2)
		k := 0
		cycle := func() {
			p := pairs[k%len(pairs)]
			k++
			guests[0], guests[1] = int32(p[0]), int32(p[1])
			hosts[0], hosts[1] = int32(ls.HostOf(p[1])), int32(ls.HostOf(p[0]))
			ls.Propose(guests, hosts)
			ls.Commit()
			_ = ls.Stats()
			ls.Dilation()
			ls.Revert()
		}
		for range pairs { // warmup
			cycle()
		}
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Errorf("steady-state propose, commit and revert allocate %.1f objects/op, want 0", allocs)
		}
	})
}

// TestCongestionAllocsBounded: the dense congestion pass allocates a
// small per-call constant (the merged slab, the pooled worker slabs and
// coordinate scratch) — never per edge. The bound is loose on purpose;
// the regression it catches is O(|E|) allocation creep.
func TestCongestionAllocsBounded(t *testing.T) {
	nw := New(grid.TorusSpec(16, 16))
	tg := taskgraph.FromSpec(grid.MeshSpec(16, 16)) // 512 edges
	rng := rand.New(rand.NewSource(29))
	p := Placement(rng.Perm(nw.Size()))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Congestion(nw, tg, p); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 64.0; allocs > limit {
		t.Errorf("Congestion allocates %.1f objects/op, want <= %.0f (edges: %d)", allocs, limit, len(tg.Edges))
	}
}

// TestLoadStateInitAllocsBounded: construction allocates the state
// itself plus pooled striping scratch — again never per edge. The pair
// is large enough to take the striped path.
func TestLoadStateInitAllocsBounded(t *testing.T) {
	nw := New(grid.MeshSpec(16, 16, 16))
	tg := taskgraph.FromSpec(grid.TorusSpec(16, 16, 16)) // 12288 edges
	rng := rand.New(rand.NewSource(37))
	p := Placement(rng.Perm(nw.Size()))
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewLoadState(nw, tg, p); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 256.0; allocs > limit {
		t.Errorf("NewLoadState allocates %.1f objects/op, want <= %.0f (edges: %d)", allocs, limit, len(tg.Edges))
	}
}

// TestClosedFormBytesPerCall: the closed form of a kernel with two
// 64-point components, torus(16x16x4x4) -> mesh(64x64), routes each
// slice inside its 64-node fiber, so its scratch is fiber-sized. A
// host-sized load array, LinkSlots()·4 bytes, would break the limit
// several times over, and the routing pass allocates about that.
func TestClosedFormBytesPerCall(t *testing.T) {
	gs, hs := grid.TorusSpec(16, 16, 4, 4), grid.MeshSpec(64, 64)
	e, err := core.Embed(gs, hs)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Digits().Components()) != 2 {
		t.Fatalf("%s -> %s (%s): not a two-component bijection", gs, hs, e.Strategy)
	}
	nw, g := New(hs), NewGuest(gs)
	got := testmem.BytesPerCall(50, func() {
		if _, _, err := EmbeddingCongestion(nw, g, e); err != nil {
			t.Fatal(err)
		}
	})
	limit := uint64(nw.LinkSlots()) / 2
	t.Logf("EmbeddingCongestion of %s -> %s: %d B/call (limit %d; a host-sized load array is %d)", gs, hs, got, limit, 4*nw.LinkSlots())
	if got > limit {
		t.Errorf("EmbeddingCongestion of %s -> %s allocates %d B/call, want <= %d", gs, hs, got, limit)
	}
}
