package grid

import (
	"fmt"
	"testing"
)

var batchSpecs = []Spec{
	MustSpec(Torus, Shape{5}),
	MustSpec(Mesh, Shape{7}),
	MustSpec(Torus, Shape{2, 2, 2}),
	MustSpec(Mesh, Shape{2, 2, 2}),
	MustSpec(Torus, Shape{4, 2, 3}),
	MustSpec(Mesh, Shape{4, 2, 3}),
	MustSpec(Torus, Shape{3, 5}),
	MustSpec(Mesh, Shape{6, 9}),
	MustSpec(Torus, Shape{2, 6}),
}

func TestStrides(t *testing.T) {
	s := Shape{4, 2, 3}
	w := s.Strides()
	want := []int{6, 3, 1}
	for j := range want {
		if w[j] != want[j] {
			t.Fatalf("Strides(%s) = %v, want %v", s, w, want)
		}
	}
	for x := 0; x < s.Size(); x++ {
		n := s.NodeAt(x)
		sum := 0
		for j, v := range n {
			sum += v * w[j]
		}
		if sum != x {
			t.Fatalf("stride reconstruction of %d gave %d", x, sum)
		}
	}
}

// TestDistanceRankMatchesDistance: the rank-native distance of one
// pair agrees with the coordinate form.
func TestDistanceRankMatchesDistance(t *testing.T) {
	for _, sp := range batchSpecs {
		rd := sp.NewRankDistancer()
		n := sp.Size()
		for a := 0; a < n; a++ {
			na := sp.Shape.NodeAt(a)
			for b := 0; b < n; b++ {
				nb := sp.Shape.NodeAt(b)
				if got, want := rd.Distance(a, b), sp.Distance(na, nb); got != want {
					t.Fatalf("%s: RankDistancer.Distance(%d,%d) = %d, want %d", sp, a, b, got, want)
				}
			}
		}
	}
}

func TestRankDistancerMatchesDistance(t *testing.T) {
	// Both the power-of-two (shift/mask) and the generic (division)
	// decode paths must agree with the closed-form node distance.
	specs := append([]Spec{
		MustSpec(Torus, Shape{4, 2, 8}),
		MustSpec(Mesh, Shape{4, 2, 8}),
		MustSpec(Torus, Shape{2, 2, 2, 2}),
	}, batchSpecs...)
	for _, sp := range specs {
		rd := sp.NewRankDistancer()
		n := sp.Size()
		var ha, hb []int
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := sp.Distance(sp.Shape.NodeAt(a), sp.Shape.NodeAt(b))
				if got, _ := rd.MaxSum([]int{a}, []int{b}); got != want {
					t.Fatalf("%s: RankDistancer.MaxSum(%d,%d) max = %d, want %d", sp, a, b, got, want)
				}
				ha = append(ha, a)
				hb = append(hb, b)
			}
		}
		var wantSum int64
		for i := range ha {
			wantSum += int64(sp.Distance(sp.Shape.NodeAt(ha[i]), sp.Shape.NodeAt(hb[i])))
		}
		if _, got := rd.MaxSum(ha, hb); got != wantSum {
			t.Fatalf("%s: RankDistancer.MaxSum sum = %d, want %d", sp, got, wantSum)
		}
	}
}

func TestVisitEdgesBatchMatchesVisitEdges(t *testing.T) {
	for _, sp := range batchSpecs {
		for _, blockSize := range []int{1, 3, 0, 1 << 20} {
			t.Run(fmt.Sprintf("%s/block=%d", sp, blockSize), func(t *testing.T) {
				var wantA, wantB []int
				sp.VisitEdges(func(a, b Node) {
					wantA = append(wantA, sp.Shape.Index(a))
					wantB = append(wantB, sp.Shape.Index(b))
				})
				var gotA, gotB []int
				sp.VisitEdgesBatchRange(0, sp.Size(), blockSize, func(a, b []int) {
					gotA = append(gotA, a...)
					gotB = append(gotB, b...)
				})
				if len(gotA) != len(wantA) || len(gotA) != sp.EdgeCount() {
					t.Fatalf("edge count %d, want %d (EdgeCount %d)", len(gotA), len(wantA), sp.EdgeCount())
				}
				for i := range wantA {
					if gotA[i] != wantA[i] || gotB[i] != wantB[i] {
						t.Fatalf("edge %d: got (%d,%d), want (%d,%d)", i, gotA[i], gotB[i], wantA[i], wantB[i])
					}
				}
			})
		}
	}
}

func TestVisitEdgesBatchRangePartition(t *testing.T) {
	for _, sp := range batchSpecs {
		n := sp.Size()
		// Split [0,n) into three uneven ranges; together they must cover
		// every edge exactly once, in order within each range.
		cuts := []int{0, n / 3, 2*n/3 + 1, n}
		total := 0
		seen := map[[2]int]bool{}
		for i := 0; i+1 < len(cuts); i++ {
			sp.VisitEdgesBatchRange(cuts[i], cuts[i+1], 4, func(a, b []int) {
				for k := range a {
					e := [2]int{a[k], b[k]}
					if seen[e] {
						t.Fatalf("%s: edge %v delivered twice", sp, e)
					}
					seen[e] = true
					total++
				}
			})
		}
		if total != sp.EdgeCount() {
			t.Fatalf("%s: partition delivered %d edges, want %d", sp, total, sp.EdgeCount())
		}
	}
}

// TestEdgeDilationStripedParity: the striped parallel pass must agree
// bit-for-bit with the serial EdgeDilation on scrambled tables — the
// property that lets the annealing engine re-validate in parallel.
func TestEdgeDilationStripedParity(t *testing.T) {
	for _, sp := range batchSpecs {
		n := sp.Size()
		rd := sp.NewRankDistancer()
		// A deterministic scramble: reversal composed with a stride walk.
		table := make([]int, n)
		for i := range table {
			table[i] = (i*7 + 3) % n
		}
		wantMax, wantAvg := sp.EdgeDilation(table, rd)
		gotMax, gotAvg := sp.EdgeDilationStriped(table, rd)
		if gotMax != wantMax || gotAvg != wantAvg {
			t.Fatalf("%s: striped (%d, %v), serial (%d, %v)", sp, gotMax, gotAvg, wantMax, wantAvg)
		}
	}
}
