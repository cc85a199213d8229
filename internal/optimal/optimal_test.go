package optimal

import (
	"testing"

	"torusmesh/internal/grid"
)

func TestMinDilationKnownOptima(t *testing.T) {
	cases := []struct {
		g, h grid.Spec
		want int
	}{
		// Ring into line: optimal 2 for n > 2 (Theorem 17).
		{grid.RingSpec(4), grid.LineSpec(4), 2},
		{grid.RingSpec(6), grid.LineSpec(6), 2},
		// Ring into odd mesh: optimal 2 (Theorem 17).
		{grid.RingSpec(9), grid.MeshSpec(3, 3), 2},
		// Ring into even mesh of dimension 2: optimal 1 (Theorem 24).
		{grid.RingSpec(8), grid.MeshSpec(4, 2), 1},
		{grid.RingSpec(6), grid.MeshSpec(2, 3), 1},
		// Line anywhere: optimal 1 (Theorem 13).
		{grid.LineSpec(9), grid.MeshSpec(3, 3), 1},
		{grid.LineSpec(8), grid.TorusSpec(4, 2), 1},
		// Torus into same-shape mesh: optimal 2 (Lemma 36).
		{grid.TorusSpec(3, 3), grid.MeshSpec(3, 3), 2},
		// Fitzgerald: (l,l)-mesh into line costs l.
		{grid.MeshSpec(2, 2), grid.LineSpec(4), 2},
		{grid.MeshSpec(3, 3), grid.LineSpec(9), 3},
		// Harper: hypercube of size 8 into line costs 4.
		{grid.MeshSpec(2, 2, 2), grid.LineSpec(8), 4},
		// MN86: (l,l)-torus into ring costs l. (2,2) is degenerate — the
		// wrap edges coincide, so it *is* a 4-cycle with optimal cost 1.
		{grid.TorusSpec(2, 2), grid.RingSpec(4), 1},
		{grid.TorusSpec(3, 3), grid.RingSpec(9), 3},
		// Mesh into hypercube: optimal 1 (Corollary 34).
		{grid.MeshSpec(2, 4), grid.TorusSpec(2, 2, 2), 1},
	}
	for _, c := range cases {
		got, err := MinDilation(c.g, c.h, 16)
		if err != nil {
			t.Errorf("%s -> %s: %v", c.g, c.h, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s -> %s: optimal dilation %d, want %d", c.g, c.h, got, c.want)
		}
	}
}

func TestMinDilationGuards(t *testing.T) {
	if _, err := MinDilation(grid.MeshSpec(4, 4), grid.LineSpec(16), 8); err == nil {
		t.Error("node limit not enforced")
	}
	if _, err := MinDilation(grid.MeshSpec(2, 2), grid.LineSpec(5), 16); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestBallSize(t *testing.T) {
	// Line of 9: ball around center of radius 2 has 5 nodes.
	if got := BallSize(grid.LineSpec(9), 2); got != 5 {
		t.Errorf("line ball = %d, want 5", got)
	}
	// Ring of 8: radius 2 ball has 5 nodes; radius 4 covers all 8.
	if got := BallSize(grid.RingSpec(8), 2); got != 5 {
		t.Errorf("ring ball = %d, want 5", got)
	}
	if got := BallSize(grid.RingSpec(8), 4); got != 8 {
		t.Errorf("ring full ball = %d, want 8", got)
	}
	// 3x3 mesh: radius 1 around center = 5; radius 2 = 9.
	if got := BallSize(grid.MeshSpec(3, 3), 1); got != 5 {
		t.Errorf("mesh ball r1 = %d, want 5", got)
	}
	if got := BallSize(grid.MeshSpec(3, 3), 2); got != 9 {
		t.Errorf("mesh ball r2 = %d, want 9", got)
	}
	// Hypercube d=3: radius 1 ball = 4 nodes.
	if got := BallSize(grid.TorusSpec(2, 2, 2), 1); got != 4 {
		t.Errorf("hypercube ball = %d, want 4", got)
	}
}

// TestBallSizeMatchesBFS cross-checks the convolution against explicit
// BFS ball counting on small graphs.
func TestBallSizeMatchesBFS(t *testing.T) {
	specs := []grid.Spec{
		grid.MeshSpec(3, 4), grid.TorusSpec(3, 4), grid.MeshSpec(2, 3, 2),
		grid.TorusSpec(5, 3), grid.LineSpec(6), grid.RingSpec(7),
	}
	for _, sp := range specs {
		g := grid.Build(sp)
		for k := 0; k <= 5; k++ {
			max := 0
			for v := 0; v < g.Size(); v++ {
				count := 0
				for _, dist := range g.BFS(v) {
					if dist <= k {
						count++
					}
				}
				if count > max {
					max = count
				}
			}
			if got := BallSize(sp, k); got != max {
				t.Errorf("%s k=%d: BallSize=%d, BFS max=%d", sp, k, got, max)
			}
		}
	}
}

func TestLowerBounds(t *testing.T) {
	// The ball bound must never exceed the true optimum.
	pairs := []struct{ g, h grid.Spec }{
		{grid.MeshSpec(3, 3), grid.LineSpec(9)},
		{grid.RingSpec(8), grid.MeshSpec(4, 2)},
		{grid.MeshSpec(2, 2, 2), grid.LineSpec(8)},
		{grid.TorusSpec(2, 2), grid.RingSpec(4)},
	}
	for _, p := range pairs {
		opt, err := MinDilation(p.g, p.h, 16)
		if err != nil {
			t.Fatalf("%s -> %s: %v", p.g, p.h, err)
		}
		if lb := LowerBoundBall(p.g, p.h); lb > opt {
			t.Errorf("%s -> %s: ball bound %d exceeds optimum %d", p.g, p.h, lb, opt)
		}
		if lb := LowerBoundDegree(p.g, p.h); lb > opt {
			t.Errorf("%s -> %s: degree bound %d exceeds optimum %d", p.g, p.h, lb, opt)
		}
	}
	// Lowering dimension forces dilation > 1 (Theorem 47 flavor).
	if lb := LowerBoundBall(grid.MeshSpec(3, 3), grid.LineSpec(9)); lb < 2 {
		t.Errorf("mesh -> line ball bound = %d, want >= 2", lb)
	}
	if lb := LowerBoundDegree(grid.MeshSpec(3, 3), grid.LineSpec(9)); lb < 2 {
		t.Errorf("mesh -> line degree bound = %d, want >= 2", lb)
	}
	// Same-size different-dimension hosts with plenty of room: bound 1.
	if lb := LowerBoundBall(grid.LineSpec(9), grid.MeshSpec(3, 3)); lb != 1 {
		t.Errorf("line -> mesh ball bound = %d, want 1", lb)
	}
}

// TestTheorem47Growth verifies the qualitative content of Theorem 47,
// which says any embedding of a d-dimensional guest in a c-dimensional
// host (c < d, equal sizes) has dilation at least b·p^{(d-c)/c} for a
// constant b. The ball bound realizes that growth (ball_g(k) ~ k^d
// while host balls grow as (2kρ+1)^c): for square meshes into lines it
// grows at least linearly with the side (p^{(d-c)/c} = p for d=2, c=1).
func TestTheorem47Growth(t *testing.T) {
	prev := 0
	for _, l := range []int{2, 3, 4, 5, 6, 8, 10} {
		lb := LowerBoundBall(grid.MustSpec(grid.Mesh, grid.Square(2, l)), grid.LineSpec(l*l))
		if lb < prev {
			t.Errorf("l=%d: bound %d decreased from %d", l, lb, prev)
		}
		if lb < l/2 {
			t.Errorf("l=%d: bound %d below p/2; Theorem 47 predicts ~b*p growth", l, lb)
		}
		prev = lb
	}
}
