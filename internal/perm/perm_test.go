package perm

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	p := Identity(4)
	a := []int{10, 20, 30, 40}
	got := Apply(p, a)
	for i := range a {
		if got[i] != a[i] {
			t.Fatalf("identity moved element %d", i)
		}
	}
}

func TestApplyMatchesPaperOperator(t *testing.T) {
	// π((i1,...,ik)) = (i_{π(1)},...,i_{π(k)}): with p = (2,0,1) the list
	// (a,b,c) becomes (c,a,b).
	p := Perm{2, 0, 1}
	got := Apply(p, []string{"a", "b", "c"})
	want := []string{"c", "a", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Apply = %v, want %v", got, want)
		}
	}
}

func TestInverse(t *testing.T) {
	err := quick.Check(func(seed uint32) bool {
		p := pseudoShuffle(5, seed)
		q := p.Inverse()
		a := []int{1, 2, 3, 4, 5}
		b := Apply(q, Apply(p, a))
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestCompose(t *testing.T) {
	err := quick.Check(func(s1, s2 uint32) bool {
		p := pseudoShuffle(6, s1)
		q := pseudoShuffle(6, s2)
		a := []int{7, 1, 4, 9, 2, 5}
		lhs := Apply(Compose(p, q), a)
		rhs := Apply(p, Apply(q, a))
		for i := range lhs {
			if lhs[i] != rhs[i] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestFind(t *testing.T) {
	from := []int{6, 8, 80}
	to := []int{80, 6, 8}
	p, ok := Find(from, to)
	if !ok {
		t.Fatal("Find failed")
	}
	got := Apply(p, from)
	for i := range to {
		if got[i] != to[i] {
			t.Fatalf("Apply(Find(...)) = %v, want %v", got, to)
		}
	}
	// Duplicates.
	p, ok = Find([]int{2, 2, 3}, []int{3, 2, 2})
	if !ok {
		t.Fatal("Find with duplicates failed")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Equal values match left to right (the constructions' axis
	// alignments, and so every artifact, depend on it).
	if want := (Perm{2, 0, 1}); !slices.Equal(p, want) {
		t.Errorf("Find with duplicates = %v, want the stable %v", p, want)
	}
	// Not a permutation.
	if _, ok := Find([]int{2, 3}, []int{3, 3}); ok {
		t.Error("Find accepted mismatched multisets")
	}
	if _, ok := Find([]int{2, 3}, []int{2}); ok {
		t.Error("Find accepted different lengths")
	}
}

func TestValidate(t *testing.T) {
	if err := (Perm{0, 1, 2}).Validate(); err != nil {
		t.Errorf("valid perm rejected: %v", err)
	}
	if err := (Perm{0, 0, 2}).Validate(); err == nil {
		t.Error("duplicate accepted")
	}
	if err := (Perm{0, 3}).Validate(); err == nil {
		t.Error("out-of-range accepted")
	}
}

func TestSameMultiset(t *testing.T) {
	if !SameMultiset([]int{2, 3, 2}, []int{3, 2, 2}) {
		t.Error("equal multisets rejected")
	}
	if SameMultiset([]int{2, 3}, []int{2, 2}) {
		t.Error("unequal multisets accepted")
	}
	if SameMultiset([]int{2}, []int{2, 2}) {
		t.Error("different lengths accepted")
	}
}

// pseudoShuffle builds a deterministic permutation of [k] from a seed via
// a linear congruential walk (no math/rand needed in tests).
func pseudoShuffle(k int, seed uint32) Perm {
	p := Identity(k)
	state := seed
	for i := k - 1; i > 0; i-- {
		state = state*1664525 + 1013904223
		j := int(state % uint32(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func TestAll(t *testing.T) {
	if got := All(0); got != nil {
		t.Errorf("All(0) = %v, want nil", got)
	}
	perms := All(3)
	if len(perms) != 6 {
		t.Fatalf("All(3) has %d permutations, want 6", len(perms))
	}
	if fmt.Sprint(perms[0]) != fmt.Sprint(Identity(3)) {
		t.Errorf("All(3)[0] = %v, want identity", perms[0])
	}
	seen := map[string]bool{}
	for i, p := range perms {
		if err := p.Validate(); err != nil {
			t.Errorf("All(3)[%d] = %v: %v", i, p, err)
		}
		key := fmt.Sprint(p)
		if seen[key] {
			t.Errorf("All(3) repeats %v", p)
		}
		seen[key] = true
		if i > 0 && !lexLess(perms[i-1], p) {
			t.Errorf("All(3) not lexicographic at %d: %v then %v", i, perms[i-1], p)
		}
	}
}

func lexLess(a, b Perm) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
