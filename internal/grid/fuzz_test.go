package grid

import (
	"math/big"
	"testing"
)

// FuzzParseSpec: the spec parser behind the /place query never panics,
// every spec it accepts has a Size equal to the exact product of its
// lengths, and the spec's kind:shape form parses back to an equal spec.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"torus:4x2x3", "mesh:6x9", "ring:24", "line:24", "mesh:4,2 x 3",
		"torus:4294967296x4294967296", "torus:3037000500x3037000500",
		"ring:3x3", "blob:3x3", "mesh", "mesh:1x4", "torus:-2x-2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sp, err := ParseSpec(in)
		if err != nil {
			return
		}
		exact := big.NewInt(1)
		for _, l := range sp.Shape {
			exact.Mul(exact, big.NewInt(int64(l)))
		}
		if !exact.IsInt64() || exact.Int64() != int64(sp.Size()) {
			t.Fatalf("%q: Size() = %d, exact node count %s", in, sp.Size(), exact)
		}
		form := sp.Kind.String() + ":" + sp.Shape.String()
		back, err := ParseSpec(form)
		if err != nil {
			t.Fatalf("%q: kind:shape form %q does not parse: %v", in, form, err)
		}
		if back.Kind != sp.Kind || !back.Shape.Equal(sp.Shape) {
			t.Fatalf("%q: kind:shape form %q parses to %v, want %v", in, form, back, sp)
		}
	})
}
