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

// TestSwapSteadyStateAllocs: after warmup (touched-list, link-list and
// route-scratch growth, histogram bucket growth), a swap plus the
// aggregate reads of an acceptance decision must not allocate at all —
// the property that keeps anneal steps at ~10⁵/sec — and neither may
// the annealing pass's Propose, Evaluate and Apply of an accepted move,
// nor its Propose and Evaluate of a rejected one.
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
		if err := ls.Swap(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("swap", func(t *testing.T) {
		k := 0
		allocs := testing.AllocsPerRun(200, func() {
			p := pairs[k%len(pairs)]
			k++
			if err := ls.Swap(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
			_ = ls.Stats()
			ls.Dilation()
		})
		if allocs != 0 {
			t.Errorf("steady-state swap allocates %.1f objects/op, want 0", allocs)
		}
	})
	guests, hosts := make([]int32, 2), make([]int32, 2)
	for _, tc := range []struct {
		name  string
		apply bool
	}{{"propose-evaluate-apply", true}, {"propose-evaluate-drop", false}} {
		t.Run(tc.name, func(t *testing.T) {
			k := 0
			cycle := func() {
				p := pairs[k%len(pairs)]
				k++
				guests[0], guests[1] = int32(p[0]), int32(p[1])
				hosts[0], hosts[1] = int32(ls.HostOf(p[1])), int32(ls.HostOf(p[0]))
				ls.Propose(guests, hosts)
				if _, _, _, err := ls.Evaluate(); err != nil {
					t.Fatal(err)
				}
				if tc.apply {
					ls.Apply()
				}
			}
			for range pairs { // warmup
				cycle()
			}
			if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
				t.Errorf("steady-state %s allocates %.1f objects/op, want 0", tc.name, allocs)
			}
		})
	}
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

// TestEmbeddingLoadStateBytesPerCall: a load state seeded with the
// paper embedding of torus(32x32x32) -> mesh(32x32x32), a proved
// bijection, takes its aggregates from the closed form and leaves its
// link array to the first Evaluate, so construction allocates the
// placement tables, the moved-guest marks and validation scratch (about
// 0.3 MB) but no load array and nothing edge-sized: half that array,
// LinkSlots()·2 bytes, is the limit.
func TestEmbeddingLoadStateBytesPerCall(t *testing.T) {
	gs, hs := grid.TorusSpec(32, 32, 32), grid.MeshSpec(32, 32, 32)
	e, err := core.Embed(gs, hs)
	if err != nil {
		t.Fatal(err)
	}
	e.Kernel() // materialize the table, as a rebuilt annealing seed has one
	nw, g := New(hs), NewGuest(gs)
	got := testmem.BytesPerCall(10, func() {
		if _, err := NewEmbeddingLoadState(nw, g, e); err != nil {
			t.Fatal(err)
		}
	})
	limit := 2 * uint64(nw.LinkSlots())
	t.Logf("NewEmbeddingLoadState of %s -> %s: %d B/call (limit %d, half a load array)", gs, hs, got, limit)
	if got > limit {
		t.Errorf("NewEmbeddingLoadState of %s -> %s allocates %d B/call, want <= %d", gs, hs, got, limit)
	}
}
