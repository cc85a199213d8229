// Package perm implements the list-permutation operator of Section 2 of
// Ma & Tao: given a permutation π of [k]+ and a list (i1,...,ik), the
// paper writes π((i1,...,ik)) for (i_{π(1)},...,i_{π(k)}). We use 0-based
// indices throughout: Apply(p, a)[j] = a[p[j]].
//
// Permutation embeddings built on this operator are graph isomorphisms
// between toruses (or meshes) whose shapes are permutations of one
// another, and are the glue steps of the paper's composite embeddings.
package perm

import (
	"fmt"
	"slices"
)

// Perm is a permutation of [k] in image form: the value at position j is
// the source index p[j].
type Perm []int

// Identity returns the identity permutation of [k].
func Identity(k int) Perm {
	p := make(Perm, k)
	for i := range p {
		p[i] = i
	}
	return p
}

// Validate checks that p is a permutation of [len(p)].
func (p Perm) Validate() error {
	seen := make([]bool, len(p))
	for j, v := range p {
		if v < 0 || v >= len(p) {
			return fmt.Errorf("perm: position %d holds %d, out of range [0,%d)", j, v, len(p))
		}
		if seen[v] {
			return fmt.Errorf("perm: value %d appears twice", v)
		}
		seen[v] = true
	}
	return nil
}

// Apply returns the list (a[p[0]], a[p[1]], ...). It panics if lengths
// differ.
func Apply[T any](p Perm, a []T) []T {
	if len(p) != len(a) {
		panic(fmt.Sprintf("perm: applying permutation of length %d to list of length %d", len(p), len(a)))
	}
	out := make([]T, len(a))
	for j, src := range p {
		out[j] = a[src]
	}
	return out
}

// ApplyInto writes (a[p[0]], a[p[1]], ...) into dst, which must have the
// same length as p. It avoids allocation in hot paths.
func ApplyInto(p Perm, a, dst []int) {
	for j, src := range p {
		dst[j] = a[src]
	}
}

// Inverse returns q with q[p[j]] = j, so Apply(q, Apply(p, a)) = a.
func (p Perm) Inverse() Perm {
	q := make(Perm, len(p))
	for j, src := range p {
		q[src] = j
	}
	return q
}

// Compose returns the permutation r with Apply(r, a) = Apply(p, Apply(q, a)).
// Applying q first rearranges a, then p rearranges the result, so
// r[j] = q[p[j]].
func Compose(p, q Perm) Perm {
	if len(p) != len(q) {
		panic("perm: composing permutations of different lengths")
	}
	r := make(Perm, len(p))
	for j := range p {
		r[j] = q[p[j]]
	}
	return r
}

// Find returns a permutation p with to[j] = from[p[j]] for all j, or
// false if from and to are not permutations of each other (as multisets).
// When several permutations work, the one matching equal values in
// left-to-right order is returned (stable).
func Find(from, to []int) (Perm, bool) {
	if len(from) != len(to) {
		return nil, false
	}
	// to[j] takes the occurrence of its value in from whose rank among
	// that value's occurrences is the rank of to[j] among them in to.
	// The lists are axis lists, short enough that the quadratic scan
	// beats bucketing positions in a map, and p is the only allocation.
	p := make(Perm, len(to))
	for j, v := range to {
		r := 0
		for _, u := range to[:j] {
			if u == v {
				r++
			}
		}
		p[j] = -1
		for i, u := range from {
			if u != v {
				continue
			}
			if r == 0 {
				p[j] = i
				break
			}
			r--
		}
		if p[j] < 0 {
			return nil, false
		}
	}
	return p, true
}

// All returns every permutation of [k] in lexicographic order of their
// image form. k must be small (the call is O(k!·k)); the placement
// search caps the dimensions it enumerates. All(0) is empty.
func All(k int) []Perm {
	if k <= 0 {
		return nil
	}
	var out []Perm
	cur := make(Perm, 0, k)
	used := make([]bool, k)
	var rec func()
	rec = func() {
		if len(cur) == k {
			out = append(out, append(Perm(nil), cur...))
			return
		}
		for v := 0; v < k; v++ {
			if used[v] {
				continue
			}
			used[v] = true
			cur = append(cur, v)
			rec()
			cur = cur[:len(cur)-1]
			used[v] = false
		}
	}
	rec()
	return out
}

// SameMultiset reports whether a and b contain the same values with the
// same multiplicities. It counts each value's occurrences in place, a
// quadratic scan without allocation, meant for short lists such as
// shapes and factors.
func SameMultiset(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if slices.Index(a, v) < i {
			continue // counted at its first occurrence
		}
		n := 0
		for _, u := range a[i:] {
			if u == v {
				n++
			}
		}
		for _, u := range b {
			if u == v {
				n--
			}
		}
		if n != 0 {
			return false
		}
	}
	return true
}
