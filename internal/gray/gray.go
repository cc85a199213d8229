// Package gray implements the generalized Gray-code sequences at the core
// of Ma & Tao's embedding constructions: the reflected mixed-radix
// sequence f_L (Definition 9), the spread-2 cyclic index sequence t_n
// (Definition 14), the ring-in-mesh sequence g_L (Definition 15), the
// two-dimensional cyclic sequence r_L (Definition 20), and the general
// cyclic sequence h_L (Definition 22). Each sequence is exposed both as a
// point function (value at position x) and as an inverse (position of a
// value); all are bijections between [n] and the radix-L numbers Ω_L.
// Each point function has one implementation, which writes into a
// caller's buffer (FInto, GInto, RInto, HInto) so that the embedding
// constructions evaluate it without allocating; F, G, R and H wrap it
// with a fresh node.
//
// Guarantees proved in the paper and enforced by this package's tests:
//
//	f_L: unit acyclic δm-spread and δt-spread (Lemmas 11, 12).
//	g_L: cyclic δm-spread at most 2 (Lemma 16).
//	r_L: unit cyclic δt-spread (Lemma 26); unit cyclic δm-spread when l1
//	     is even (Lemma 21).
//	h_L: unit cyclic δt-spread (Lemma 27); unit cyclic δm-spread when l1
//	     is even and d >= 2 (Lemma 23).
package gray

import (
	"fmt"

	"torusmesh/internal/grid"
	"torusmesh/internal/radix"
)

// P returns the naive radix-L representation of x (the sequence P of
// Section 3.1, before reflection). Successive elements can differ by up
// to max(l_i) - 1 in a single coordinate, which is why the reflected
// sequence F exists. Kept as an explicit ablation baseline.
func P(L radix.Base, x int) grid.Node { return radix.ToDigits(L, x) }

// F is the reflected mixed-radix Gray sequence f_L of Definition 9:
// digit i of f_L(x) equals the i-th radix-L digit x̂_i of x when
// ⌊x/w_{i-1}⌋ is even and l_i - x̂_i - 1 when it is odd. It returns a
// fresh node; FInto writes the same digits into a caller's buffer.
func F(L radix.Base, x int) grid.Node { return FInto(make(grid.Node, len(L)), L, x) }

// FInto writes f_L(x) into dst, which must have len(L) entries, and
// returns dst. The prefix value ⌊x/w_{i-1}⌋ is exactly the integer
// formed by the first i-1 true digits, which lets the whole list be
// computed in one left-to-right pass after the radix-L decode.
func FInto(dst grid.Node, L radix.Base, x int) grid.Node {
	for j := len(L) - 1; j >= 0; j-- {
		dst[j] = x % L[j]
		x /= L[j]
	}
	prefix := 0
	for j, l := range L {
		hat := dst[j]
		if prefix%2 == 1 {
			dst[j] = l - hat - 1
		}
		prefix = prefix*l + hat
	}
	return dst
}

// FInv returns the position x with F(L, x) equal to v.
func FInv(L radix.Base, v grid.Node) int {
	prefix := 0
	for j, l := range L {
		hat := v[j]
		if prefix%2 == 1 {
			hat = l - hat - 1
		}
		prefix = prefix*l + hat
	}
	return prefix
}

// TN is the cyclic index sequence t_n of Definition 14: the cyclic
// sequence 0, 2, 4, ..., 5, 3, 1 of all numbers in [n] whose successive
// elements (including the wrap-around pair) differ by at most 2.
func TN(n, x int) int {
	if 2*x <= n-1 {
		return 2 * x
	}
	return 2*(n-x) - 1
}

// TNInv returns the position of value y in the sequence t_n.
func TNInv(n, y int) int {
	if y%2 == 0 {
		return y / 2
	}
	return n - (y+1)/2
}

// G is the cyclic sequence g_L = f_L ∘ t_n of Definition 15. Its cyclic
// δm-spread is at most 2, giving a dilation-2 embedding of a ring in a
// mesh (Theorem 17), optimal when the mesh has odd size or is a line of
// size greater than 2. It returns a fresh node; GInto writes into a
// caller's buffer.
func G(L radix.Base, x int) grid.Node { return GInto(make(grid.Node, len(L)), L, x) }

// GInto writes g_L(x) into dst, which must have len(L) entries, and
// returns dst.
func GInto(dst grid.Node, L radix.Base, x int) grid.Node {
	return FInto(dst, L, TN(grid.Shape(L).Size(), x))
}

// GInv returns the position x with G(L, x) equal to v.
func GInv(L radix.Base, v grid.Node) int {
	n := grid.Shape(L).Size()
	return TNInv(n, FInv(L, v))
}

// R is the two-dimensional cyclic sequence r_L of Definition 20 for
// L = (l1, l2): march down the first column from (l1-1, 0) to (0, 0),
// then sweep the remaining (l1, l2-1)-mesh with f. Unit cyclic δt-spread
// always; unit cyclic δm-spread when l1 is even. It returns a fresh
// node; RInto writes into a caller's buffer.
func R(L radix.Base, x int) grid.Node { return RInto(make(grid.Node, len(L)), L, x) }

// RInto writes r_L(x) into dst, which must have len(L) entries, and
// returns dst. It panics unless L is 2-dimensional.
func RInto(dst grid.Node, L radix.Base, x int) grid.Node {
	if len(L) != 2 {
		// The message leaves L out so that L does not escape: HInto's
		// two-axis bases stay on the stack.
		panic(fmt.Sprintf("gray: R requires a 2-dimensional base, got %d dimensions", len(L)))
	}
	l1, l2 := L[0], L[1]
	switch {
	case x < l1:
		dst[0], dst[1] = l1-1-x, 0
	case l2 == 2:
		dst[0], dst[1] = x-l1, 1
	default:
		FInto(dst, radix.Base{l1, l2 - 1}, x-l1)
		dst[1]++
	}
	return dst
}

// RInv returns the position x with R(L, x) equal to v.
func RInv(L radix.Base, v grid.Node) int {
	l1, l2 := L[0], L[1]
	if v[1] == 0 {
		return l1 - 1 - v[0]
	}
	if l2 == 2 {
		return l1 + v[0]
	}
	return l1 + FInv(radix.Base{l1, l2 - 1}, grid.Node{v[0], v[1] - 1})
}

// H is the cyclic sequence h_L of Definition 22. For d >= 3 it marches
// through the (l3,...,ld) "planes" ordered by f_{L”}: a forward pass
// fills l1·l2 - 1 nodes per plane following r_{L'} (reversed on
// odd-numbered planes), then a backward pass fills the last node
// r_{L'}(l1·l2 - 1) of each plane. For d = 2 it is r_L; for d = 1 the
// identity. Unit cyclic δt-spread always (Theorem 28: a ring embeds in
// any torus of the same size with dilation 1); unit cyclic δm-spread when
// l1 is even (Theorem 24 after permuting an even length to the front).
// It returns a fresh node; HInto writes into a caller's buffer.
func H(L radix.Base, x int) grid.Node { return HInto(make(grid.Node, len(L)), L, x) }

// HInto writes h_L(x) into dst, which must have len(L) entries, and
// returns dst.
func HInto(dst grid.Node, L radix.Base, x int) grid.Node {
	switch len(L) {
	case 1:
		dst[0] = x
		return dst
	case 2:
		return RInto(dst, L, x)
	}
	lp := radix.Base{L[0], L[1]}
	lpp := radix.Base(L[2:])
	plane := L[0] * L[1]
	m := grid.Shape(lpp).Size()
	n := plane * m
	seg := plane - 1
	if x < m*seg {
		a, b := x/seg, x%seg
		if a%2 == 1 {
			b = plane - b - 2
		}
		RInto(dst[:2], lp, b)
		FInto(dst[2:], lpp, a)
		return dst
	}
	RInto(dst[:2], lp, plane-1)
	FInto(dst[2:], lpp, n-x-1)
	return dst
}

// HInv returns the position x with H(L, x) equal to v.
func HInv(L radix.Base, v grid.Node) int {
	switch len(L) {
	case 1:
		return v[0]
	case 2:
		return RInv(L, v)
	}
	lp := radix.Base{L[0], L[1]}
	lpp := radix.Base(L[2:])
	plane := L[0] * L[1]
	m := grid.Shape(lpp).Size()
	n := plane * m
	seg := plane - 1
	p := RInv(lp, grid.Node(v[:2]))
	a := FInv(lpp, grid.Node(v[2:]))
	if p == plane-1 {
		return n - a - 1 // backward pass
	}
	b := p
	if a%2 == 1 {
		b = plane - p - 2
	}
	return a*seg + b
}

// Sequences materialized over the whole domain.

// PSeq returns the naive sequence P for L.
func PSeq(L radix.Base) radix.Sequence {
	return radix.SequenceOf(grid.Shape(L).Size(), func(x int) grid.Node { return P(L, x) })
}

// FSeq returns the full sequence f_L.
func FSeq(L radix.Base) radix.Sequence {
	return radix.SequenceOf(grid.Shape(L).Size(), func(x int) grid.Node { return F(L, x) })
}

// GSeq returns the full cyclic sequence g_L.
func GSeq(L radix.Base) radix.Sequence {
	return radix.SequenceOf(grid.Shape(L).Size(), func(x int) grid.Node { return G(L, x) })
}

// HSeq returns the full cyclic sequence h_L.
func HSeq(L radix.Base) radix.Sequence {
	return radix.SequenceOf(grid.Shape(L).Size(), func(x int) grid.Node { return H(L, x) })
}
