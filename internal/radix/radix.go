// Package radix implements the mixed-radix numbering systems of
// Definition 7 in Ma & Tao: given a radix-base L = (l1,...,ld), the set
// Ω_L of radix-L numbers is the set of digit lists (x̂1,...,x̂d) with
// x̂j in [lj]. The bijection u_L maps [n] (n = Πlj) to Ω_L and u_L⁻¹ maps
// back. The package also provides the δm and δt distance measures between
// radix-L numbers (inherited from the corresponding mesh and torus) and
// the spread of acyclic and cyclic sequences (Definition 8).
package radix

import (
	"fmt"

	"torusmesh/internal/grid"
)

// Base is a radix-base L = (l1,...,ld); every component must be > 1.
// It is structurally identical to a grid.Shape because the paper
// deliberately identifies radix-L numbers with torus/mesh nodes.
type Base = grid.Shape

// ToDigits is u_L: it returns the radix-L representation (x̂1,...,x̂d) of
// x, where x̂j = ⌊x/wj⌋ mod lj. x must be in [n].
func ToDigits(L Base, x int) grid.Node {
	d := len(L)
	digits := make(grid.Node, d)
	for j := d - 1; j >= 0; j-- {
		digits[j] = x % L[j]
		x /= L[j]
	}
	return digits
}

// FromDigits is u_L⁻¹: it returns Σ x̂k·wk for a radix-L number.
func FromDigits(L Base, digits grid.Node) int {
	x := 0
	for j, v := range digits {
		x = x*L[j] + v
	}
	return x
}

// DeltaM is the δm-distance between two radix-L numbers: the distance
// between the corresponding nodes of the (l1,...,ld)-mesh.
func DeltaM(L Base, a, b grid.Node) int { return grid.DistanceMesh(L, a, b) }

// DeltaT is the δt-distance between two radix-L numbers: the distance
// between the corresponding nodes of the (l1,...,ld)-torus. It never
// exceeds DeltaM.
func DeltaT(L Base, a, b grid.Node) int { return grid.DistanceTorus(L, a, b) }

// Sequence is a bijection f: [n] -> Ω_L materialized as the list
// f(0), f(1), ..., f(n-1).
type Sequence []grid.Node

// SequenceOf materializes fn over [n].
func SequenceOf(n int, fn func(int) grid.Node) Sequence {
	s := make(Sequence, n)
	for x := range s {
		s[x] = fn(x)
	}
	return s
}

// SpreadAcyclicM returns the δm-spread of the acyclic sequence: the
// maximum δm-distance among successive elements.
func SpreadAcyclicM(L Base, s Sequence) int { return spread(L, s, false, DeltaM) }

// SpreadAcyclicT returns the δt-spread of the acyclic sequence.
func SpreadAcyclicT(L Base, s Sequence) int { return spread(L, s, false, DeltaT) }

// SpreadCyclicM returns the δm-spread of the cyclic sequence: successive
// elements include the pair (last, first).
func SpreadCyclicM(L Base, s Sequence) int { return spread(L, s, true, DeltaM) }

// SpreadCyclicT returns the δt-spread of the cyclic sequence.
func SpreadCyclicT(L Base, s Sequence) int { return spread(L, s, true, DeltaT) }

func spread(L Base, s Sequence, cyclic bool, dist func(Base, grid.Node, grid.Node) int) int {
	max := 0
	for i := 1; i < len(s); i++ {
		if d := dist(L, s[i-1], s[i]); d > max {
			max = d
		}
	}
	if cyclic && len(s) > 1 {
		if d := dist(L, s[len(s)-1], s[0]); d > max {
			max = d
		}
	}
	return max
}

// CheckBijection verifies that s enumerates every radix-L number exactly
// once. Returns nil on success.
func CheckBijection(L Base, s Sequence) error {
	n := 1
	for _, l := range L {
		n *= l
	}
	if len(s) != n {
		return fmt.Errorf("radix: sequence has %d elements, want %d", len(s), n)
	}
	seen := make([]bool, n)
	for i, digits := range s {
		if !digits.InBounds(grid.Shape(L)) {
			return fmt.Errorf("radix: element %d = %s out of bounds for base %s", i, digits, grid.Shape(L))
		}
		x := FromDigits(L, digits)
		if seen[x] {
			return fmt.Errorf("radix: element %d = %s repeats value %d", i, digits, x)
		}
		seen[x] = true
	}
	return nil
}
