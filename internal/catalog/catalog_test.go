package catalog

import (
	"testing"

	"torusmesh/internal/grid"
	"torusmesh/internal/perm"
)

func TestShapesOfSize(t *testing.T) {
	// 12 = 12 | 2x6 | 6x2 | 3x4 | 4x3 | 2x2x3 | 2x3x2 | 3x2x2.
	shapes := ShapesOfSize(12, 0)
	if len(shapes) != 8 {
		t.Fatalf("ShapesOfSize(12) returned %d shapes: %v", len(shapes), shapes)
	}
	for _, s := range shapes {
		if s.Size() != 12 {
			t.Errorf("shape %s has size %d", s, s.Size())
		}
		if err := s.Validate(); err != nil {
			t.Errorf("shape %s invalid: %v", s, err)
		}
	}
	// Cap at 2 dimensions.
	capped := ShapesOfSize(12, 2)
	if len(capped) != 5 {
		t.Errorf("ShapesOfSize(12, maxDim=2) returned %d shapes: %v", len(capped), capped)
	}
	if got := ShapesOfSize(1, 0); got != nil {
		t.Error("size 1 should return nothing")
	}
	// Primes have exactly one shape.
	if got := ShapesOfSize(7, 0); len(got) != 1 || got[0].Size() != 7 {
		t.Errorf("ShapesOfSize(7) = %v", got)
	}
}

func TestCanonicalShapesOfSize(t *testing.T) {
	// Canonical for 12: 12 | 6x2 | 4x3 | 3x2x2.
	shapes := CanonicalShapesOfSize(12, 0)
	if len(shapes) != 4 {
		t.Fatalf("CanonicalShapesOfSize(12) = %v", shapes)
	}
	for _, s := range shapes {
		for i := 1; i < len(s); i++ {
			if s[i] > s[i-1] {
				t.Errorf("shape %s not non-increasing", s)
			}
		}
	}
}

func TestAxisOrderings(t *testing.T) {
	// 4x2x4 has three distinct orderings: (4,2,4), (4,4,2), (2,4,4).
	got := AxisOrderings(grid.Shape{4, 2, 4})
	if len(got) != 3 {
		t.Fatalf("AxisOrderings(4x2x4) has %d entries, want 3", len(got))
	}
	id := perm.Identity(3)
	for i := range id {
		if got[0][i] != id[i] {
			t.Fatalf("AxisOrderings(4x2x4)[0] = %v, want identity", got[0])
		}
	}
	shapes := map[string]bool{}
	for _, p := range got {
		shapes[grid.Shape(perm.Apply(p, grid.Shape{4, 2, 4})).String()] = true
	}
	for _, want := range []string{"4x2x4", "4x4x2", "2x4x4"} {
		if !shapes[want] {
			t.Errorf("ordering %s missing from %v", want, shapes)
		}
	}
	// All-equal shapes collapse to the identity alone.
	if got := AxisOrderings(grid.Shape{2, 2, 2, 2}); len(got) != 1 {
		t.Errorf("AxisOrderings(hypercube) has %d entries, want 1", len(got))
	}
}
