package embed

import (
	"fmt"
	"runtime"
	"testing"

	"torusmesh/internal/grid"
	"torusmesh/internal/perm"
)

// wantViolation is the Verify error for the first violation
// CheckInjection finds in e's materialized table, in Verify's wording.
func wantViolation(t *testing.T, e *Embedding) string {
	t.Helper()
	n := e.From.Size()
	bad := Materialize(e.kernel, n).CheckInjection(n)
	if bad == nil {
		t.Fatalf("%s: sabotaged table passes CheckInjection", e.Strategy)
	}
	if bad.OutOfBounds {
		return fmt.Sprintf("embed: %s: image of node %s (host rank %d) out of bounds for host %s",
			e.Strategy, e.From.Shape.NodeAt(bad.GuestRank), bad.HostRank, e.To)
	}
	return fmt.Sprintf("embed: %s: host node %s has two pre-images (one is %s)",
		e.Strategy, e.To.Shape.NodeAt(bad.HostRank), e.From.Shape.NodeAt(bad.GuestRank))
}

// routeCase is one kernel form with a sabotaged copy of it.
type routeCase struct {
	name      string
	good, bad *Embedding
}

// routeCases builds, at the current materialization threshold, a
// carry-free digit kernel, a chain kernel and a New closure, each with
// a sabotaged copy of the same kernel form.
func routeCases(t *testing.T) []routeCase {
	t.Helper()
	from := grid.TorusSpec(4, 3, 5)
	must := func(e *Embedding, err error) *Embedding {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	digit := must(Permute(from, perm.Perm{2, 0, 1}, grid.Mesh))
	to := digit.To
	// Dropping axis 1 keeps the map separable but folds three guest
	// nodes onto every image.
	digitBad := must(NewSeparable(from, to, "drop-axis", 0, func(n grid.Node) grid.Node {
		m := n.Clone()
		m[1] = 0
		return digit.Map(m)
	}))
	reverse := must(New(from, from, "reverse", 1, func(n grid.Node) grid.Node {
		m := n.Clone()
		m[0] = from.Shape[0] - 1 - m[0]
		return m
	}))
	clamp := must(New(from, from, "clamp", 0, func(n grid.Node) grid.Node {
		m := n.Clone()
		m[2] = min(m[2], 2)
		return m
	}))
	chain := must(Compose(reverse, digit))
	chainBad := must(Compose(clamp, digit))
	for _, c := range []*Embedding{chain, chainBad} {
		if _, ok := c.kernel.(chainKernel); !ok {
			t.Fatalf("%s: kernel is %T, want a chain", c.Strategy, c.kernel)
		}
	}
	closure := must(New(from, to, "closure", 0, digit.Map))
	// Guest nodes on the last layer of axis 0 map out of the host.
	closureBad := must(New(from, to, "escape", 0, func(n grid.Node) grid.Node {
		m := digit.Map(n)
		if n[0] == from.Shape[0]-1 {
			m[1] = to.Shape[1]
		}
		return m
	}))
	return []routeCase{
		{"digit", digit, digitBad},
		{"chain", chain, chainBad},
		{"closure", closure, closureBad},
	}
}

// TestMeasurementRoutesAgree pins Verify and EdgeDilation on each
// kernel form and route to their oracles: with the default threshold
// the chain and the closure measure their materialized tables, at
// threshold 0 they take the kernel passes, and the digit kernel
// answers in closed form under both. EdgeDilation equals the per-node
// reference walks, a sabotaged copy's Verify reports the violation
// CheckInjection finds first, and a proved bijection is verified
// without a table.
func TestMeasurementRoutesAgree(t *testing.T) {
	old := MaterializeThreshold()
	defer SetMaterializeThreshold(old)
	for _, threshold := range []int{DefaultMaterializeThreshold, 0} {
		SetMaterializeThreshold(threshold)
		for _, tc := range routeCases(t) {
			name := fmt.Sprintf("%s/threshold=%d", tc.name, threshold)
			e := tc.good
			before := tablesMaterialized.Value()
			if err := e.Verify(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if k := e.Digits(); k != nil {
				if !k.Bijective() {
					t.Fatalf("%s: permutation kernel not proved bijective", name)
				}
				if got := tablesMaterialized.Value() - before; got != 0 {
					t.Errorf("%s: Verify of a proved bijection materialized %d tables", name, got)
				}
			}
			dil, avg := e.EdgeDilation(e.To.NewRankDistancer())
			if want := e.DilationPerNode(); dil != want {
				t.Errorf("%s: EdgeDilation dilation %d, per-node %d", name, dil, want)
			}
			if want := e.AverageDilationPerNode(); avg != want {
				t.Errorf("%s: EdgeDilation average %v, per-node %v", name, avg, want)
			}
			if e.Dilation() != dil || e.AverageDilation() != avg {
				t.Errorf("%s: Dilation, AverageDilation = %d, %v; EdgeDilation = %d, %v",
					name, e.Dilation(), e.AverageDilation(), dil, avg)
			}
			err := tc.bad.Verify()
			if want := wantViolation(t, tc.bad); err == nil || err.Error() != want {
				t.Errorf("%s: sabotaged Verify = %v, want %s", name, err, want)
			}
		}
	}
}

// TestVerifyKernelViolationIsDeterministic: a kernel reports the
// violation CheckInjection finds first in its materialized table,
// whichever worker meets a violation first — a closure kernel at
// threshold 0, large enough to be scanned in parallel, and its
// materialized table at the default threshold.
func TestVerifyKernelViolationIsDeterministic(t *testing.T) {
	old := MaterializeThreshold()
	defer SetMaterializeThreshold(old)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	line := grid.LineSpec(65536)
	for _, threshold := range []int{0, DefaultMaterializeThreshold} {
		SetMaterializeThreshold(threshold)
		e, err := New(line, line, "pairs", 0, func(n grid.Node) grid.Node { return grid.Node{n[0] &^ 1} })
		if err != nil {
			t.Fatal(err)
		}
		// Guest ranks 0 and 1 share host rank 0: the first violation.
		want := wantViolation(t, e)
		if want != "embed: pairs: host node (0) has two pre-images (one is (1))" {
			t.Fatalf("CheckInjection names %q", want)
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for i := 0; i < 30; i++ {
				if err := e.Verify(); err == nil || err.Error() != want {
					t.Fatalf("threshold %d GOMAXPROCS=%d call %d: Verify = %v, want %s", threshold, procs, i, err, want)
				}
			}
		}
		if _, isTable := e.Kernel().(Table); isTable != (threshold > 0) {
			t.Fatalf("threshold %d: kernel is %T", threshold, e.Kernel())
		}
	}
}
