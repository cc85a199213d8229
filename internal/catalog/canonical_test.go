package catalog

import (
	"math/rand"
	"reflect"
	"testing"

	"torusmesh/internal/grid"
	"torusmesh/internal/netsim"
	"torusmesh/internal/perm"
	"torusmesh/internal/taskgraph"
)

func TestCanonicalGuestSortsAxes(t *testing.T) {
	cases := []struct {
		in        grid.Spec
		wantSpec  string
		wantIdent bool
	}{
		{grid.TorusSpec(8, 2), "torus(8x2)", true},
		{grid.TorusSpec(2, 8), "torus(8x2)", false},
		{grid.MeshSpec(3, 4, 2), "mesh(4x3x2)", false},
		{grid.MeshSpec(4, 3, 2), "mesh(4x3x2)", true},
		{grid.TorusSpec(2, 2, 2), "torus(2x2x2)", true},
		{grid.MeshSpec(2, 2, 2), "torus(2x2x2)", false}, // hypercube kind fold
		{grid.RingSpec(16), "ring(16)", true},
	}
	for _, tc := range cases {
		canon, p := CanonicalGuest(tc.in)
		if canon.String() != tc.wantSpec {
			t.Errorf("CanonicalGuest(%s) = %s, want %s", tc.in, canon, tc.wantSpec)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("CanonicalGuest(%s) perm invalid: %v", tc.in, err)
		}
		if got := grid.Shape(perm.Apply(p, []int(tc.in.Shape))); !got.Equal(canon.Shape) {
			t.Errorf("CanonicalGuest(%s): Apply(perm, shape) = %v, want %v", tc.in, got, canon.Shape)
		}
		ident := reflect.DeepEqual(p, perm.Identity(tc.in.Dim())) && tc.in.Kind == canon.Kind
		if ident != tc.wantIdent {
			t.Errorf("CanonicalGuest(%s) identity = %v, want %v (perm %v)", tc.in, ident, tc.wantIdent, p)
		}
	}
}

func TestCanonicalHostKeepsAxisOrder(t *testing.T) {
	h := grid.MeshSpec(2, 4, 2)
	canon, p := CanonicalHost(h)
	if canon.String() != "mesh(2x4x2)" {
		t.Fatalf("CanonicalHost(%s) = %s; host axis order is metrically significant and must not sort", h, canon)
	}
	if !reflect.DeepEqual(p, perm.Identity(3)) {
		t.Fatalf("CanonicalHost perm = %v, want identity", p)
	}
	hc, _ := CanonicalHost(grid.MeshSpec(2, 2, 2))
	if hc.Kind != grid.Torus {
		t.Fatalf("CanonicalHost(mesh(2x2x2)).Kind = %v, want the hypercube fold to torus", hc.Kind)
	}
}

func TestCanonicalPairKeySharing(t *testing.T) {
	base, err := CanonicalPair(grid.TorusSpec(8, 2), grid.MeshSpec(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := base.String(); got != "torus:8x2->mesh:4x4" {
		t.Fatalf("key = %q, want torus:8x2->mesh:4x4", got)
	}
	if !base.Identity() {
		t.Fatal("canonical pair should report Identity()")
	}
	relabeled, err := CanonicalPair(grid.TorusSpec(2, 8), grid.MeshSpec(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if relabeled.String() != base.String() {
		t.Fatalf("guest relabeling changed the key: %q vs %q", relabeled.String(), base.String())
	}
	if relabeled.Identity() {
		t.Fatal("relabeled pair must carry a non-identity guest perm")
	}
	// Host relabelings are distinct keys on purpose.
	hostRelabeled, err := CanonicalPair(grid.TorusSpec(8, 2), grid.MeshSpec(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if hostRelabeled.String() == base.String() {
		t.Fatal("host axis relabeling must NOT share a key (routing is labeling-sensitive)")
	}
}

func TestCanonicalPairRejectsMismatch(t *testing.T) {
	if _, err := CanonicalPair(grid.TorusSpec(8, 2), grid.MeshSpec(4, 2)); err == nil {
		t.Fatal("size mismatch must fail")
	}
	if _, err := CanonicalPair(grid.Spec{Kind: grid.Torus, Shape: grid.Shape{1, 4}}, grid.MeshSpec(2, 2)); err == nil {
		t.Fatal("invalid shape must fail")
	}
}

// TestDenormalizePreservesMetrics is the load-bearing theorem of
// canonical-pair keying: a placement measured on the canonical pair,
// translated back to the caller's labeling, must measure identically
// there — dilation and the full congestion stats.
func TestDenormalizePreservesMetrics(t *testing.T) {
	cases := []struct{ ug, uh grid.Spec }{
		{grid.TorusSpec(2, 8), grid.MeshSpec(4, 4)},       // guest axis sort
		{grid.MeshSpec(3, 2, 4), grid.TorusSpec(6, 4)},    // 3-d guest sort
		{grid.MeshSpec(2, 2, 2, 2), grid.MeshSpec(4, 4)},  // hypercube guest kind fold
		{grid.TorusSpec(4, 4), grid.MeshSpec(2, 2, 2, 2)}, // hypercube host kind fold
	}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range cases {
		k, err := CanonicalPair(tc.ug, tc.uh)
		if err != nil {
			t.Fatal(err)
		}
		n := k.Guest.Size()
		for trial := 0; trial < 4; trial++ {
			canonTable := rng.Perm(n)
			userTable := k.DenormalizePlacement(canonTable)
			if got := k.NormalizePlacement(userTable); !reflect.DeepEqual(got, canonTable) {
				t.Fatalf("%s->%s: normalize(denormalize(t)) != t", tc.ug, tc.uh)
			}
			canonStats, err := netsim.Congestion(netsim.New(k.Host), taskgraph.FromSpec(k.Guest), canonTable)
			if err != nil {
				t.Fatal(err)
			}
			userStats, err := netsim.Congestion(netsim.New(tc.uh), taskgraph.FromSpec(tc.ug), userTable)
			if err != nil {
				t.Fatal(err)
			}
			if canonStats != userStats {
				t.Fatalf("%s->%s: congestion drifted across denormalization: canonical %+v, user %+v",
					tc.ug, tc.uh, canonStats, userStats)
			}
			if cd, ud := tableDilation(k.Guest, k.Host, canonTable), tableDilation(tc.ug, tc.uh, userTable); cd != ud {
				t.Fatalf("%s->%s: dilation drifted across denormalization: canonical %d, user %d", tc.ug, tc.uh, cd, ud)
			}
		}
	}
}

// tableDilation measures the worst edge stretch of a placement table
// directly from the grid distance function.
func tableDilation(g, h grid.Spec, table []int) int {
	max, rd := 0, h.NewRankDistancer()
	g.VisitEdges(func(a, b grid.Node) {
		d := rd.Distance(table[g.Shape.Index(a)], table[g.Shape.Index(b)])
		if d > max {
			max = d
		}
	})
	return max
}

// fuzzShape decodes a byte slice into a valid small shape: 1..4 axes of
// length 2..9, total size capped so the placement round-trip stays
// cheap.
func fuzzShape(dims []byte) grid.Shape {
	var s grid.Shape
	size := 1
	for _, b := range dims {
		if len(s) == 4 {
			break
		}
		l := 2 + int(b%8)
		if size*l > 2048 {
			break
		}
		s = append(s, l)
		size *= l
	}
	if len(s) == 0 {
		s = grid.Shape{2}
	}
	return s
}

// FuzzCanonicalPair pins the canonical-key algebra: canonicalizing
// twice equals once, every guest axis relabeling (and hypercube kind
// swap) of a pair lands on the same key, and the de-normalizing
// permutation round-trips placements bijectively.
func FuzzCanonicalPair(f *testing.F) {
	f.Add(false, true, []byte{6, 0}, byte(1), int64(1))
	f.Add(true, true, []byte{0, 0, 0}, byte(0), int64(7))
	f.Add(false, false, []byte{2, 1, 3}, byte(5), int64(42))
	f.Fuzz(func(t *testing.T, gTorus, hTorus bool, dims []byte, hostPick byte, seed int64) {
		gShape := fuzzShape(dims)
		hostShapes := ShapesOfSize(gShape.Size(), 3)
		if len(hostShapes) == 0 {
			t.Skip()
		}
		kind := func(torus bool) grid.Kind {
			if torus {
				return grid.Torus
			}
			return grid.Mesh
		}
		g := grid.Spec{Kind: kind(gTorus), Shape: gShape}
		h := grid.Spec{Kind: kind(hTorus), Shape: hostShapes[int(hostPick)%len(hostShapes)]}
		k, err := CanonicalPair(g, h)
		if err != nil {
			t.Fatalf("CanonicalPair(%s, %s): %v", g, h, err)
		}
		// Canonicalize twice = once, with identity perms the second time.
		k2, err := CanonicalPair(k.Guest, k.Host)
		if err != nil {
			t.Fatalf("re-canonicalizing %s failed: %v", k, err)
		}
		if k2.String() != k.String() || !k2.Identity() {
			t.Fatalf("canonicalization not idempotent: %s -> %s (identity=%v)", k, k2, k2.Identity())
		}
		// Every guest axis relabeling shares the key.
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 3; trial++ {
			p := perm.Perm(rng.Perm(g.Dim()))
			rg := grid.Spec{Kind: g.Kind, Shape: perm.Apply(p, []int(g.Shape))}
			rk, err := CanonicalPair(rg, h)
			if err != nil {
				t.Fatalf("CanonicalPair(%s, %s): %v", rg, h, err)
			}
			if rk.String() != k.String() {
				t.Fatalf("guest relabeling %v changed the key: %s vs %s", p, rk, k)
			}
		}
		// Hypercube guests share the key across kinds.
		if g.Shape.IsHypercube() {
			flip := grid.Spec{Kind: kind(!gTorus), Shape: g.Shape}
			fk, err := CanonicalPair(flip, h)
			if err != nil {
				t.Fatal(err)
			}
			if fk.String() != k.String() {
				t.Fatalf("hypercube kind flip changed the key: %s vs %s", fk, k)
			}
		}
		// The de-normalizing permutation round-trips placements and
		// preserves injectivity.
		n := k.Guest.Size()
		canonTable := rng.Perm(n)
		userTable := k.DenormalizePlacement(canonTable)
		seen := make([]bool, n)
		for _, v := range userTable {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("denormalized table is not a bijection: %v", userTable)
			}
			seen[v] = true
		}
		if got := k.NormalizePlacement(userTable); !reflect.DeepEqual(got, canonTable) {
			t.Fatalf("normalize(denormalize(t)) != t for %s", k)
		}
	})
}
