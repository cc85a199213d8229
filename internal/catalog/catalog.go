// Package catalog enumerates torus/mesh shapes of a given size — the
// ordered factorizations of n into parts greater than 1. It powers the
// coverage census (which fraction of same-size shape pairs the paper's
// conditions of expansion/reduction/squareness actually cover) and the
// integration sweeps in the test suite.
package catalog

import (
	"sort"

	"torusmesh/internal/grid"
	"torusmesh/internal/perm"
)

// ShapesOfSize returns every shape (ordered composition of factors >= 2)
// whose product is n, optionally capped at maxDim dimensions
// (maxDim <= 0 means unlimited). Shapes are returned in deterministic
// order: by dimension, then lexicographically.
func ShapesOfSize(n, maxDim int) []grid.Shape {
	if n < 2 {
		return nil
	}
	var out []grid.Shape
	var cur grid.Shape
	var rec func(rem int)
	rec = func(rem int) {
		if rem == 1 {
			shape := cur.Clone()
			out = append(out, shape)
			return
		}
		if maxDim > 0 && len(cur) == maxDim {
			return
		}
		for f := 2; f <= rem; f++ {
			if rem%f != 0 {
				continue
			}
			cur = append(cur, f)
			rec(rem / f)
			cur = cur[:len(cur)-1]
		}
	}
	rec(n)
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// CanonicalShapesOfSize returns one representative per multiset of
// factors (non-increasing order), since permuted shapes are isomorphic
// graphs. Ordered by dimension then lexicographically.
func CanonicalShapesOfSize(n, maxDim int) []grid.Shape {
	all := ShapesOfSize(n, maxDim)
	seen := map[string]bool{}
	var out []grid.Shape
	for _, s := range all {
		c := s.Clone()
		sort.Sort(sort.Reverse(sort.IntSlice(c)))
		key := c.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// AxisOrderings returns one permutation per distinct ordering of the
// shape's dimension lengths, in lexicographic order of the permutations,
// with the identity first. Two permutations that produce the same
// permuted shape differ only by swapping equal-length axes — on the
// guest side of an embedding that is a graph automorphism, which leaves
// every placement metric unchanged, so the placement search enumerates
// only one representative. (On the host side the full permutation group
// matters: swapping equal-length host axes reorders dimension-ordered
// routing and changes congestion; use perm.All there.)
func AxisOrderings(s grid.Shape) []perm.Perm {
	seen := map[string]bool{}
	var out []perm.Perm
	for _, p := range perm.All(s.Dim()) {
		key := grid.Shape(perm.Apply(p, s)).String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, p)
	}
	return out
}
