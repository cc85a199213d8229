package place

import (
	"bytes"
	"testing"

	"torusmesh/internal/grid"
)

// cliConfig is the search the place CLI runs for a pair when given no
// flags beyond -from and -to.
func cliConfig(g, h grid.Spec) Config {
	return Config{
		Guest:       g,
		Host:        h,
		Objective:   DefaultObjective(),
		Budget:      DefaultBudget,
		CapDilation: true,
		Rotations:   true,
		Strategies:  DefaultStrategies(),
	}
}

// FuzzPlaceDecode: Decode never panics, and any input it accepts
// re-encodes to bytes that decode again and re-encode identically —
// so a served or cached artifact is a fixed point of the codec. The
// seed is the artifact of the CI place smoke's pair.
func FuzzPlaceDecode(f *testing.F) {
	res, err := Search(cliConfig(grid.TorusSpec(8, 2), grid.MeshSpec(4, 4)))
	if err != nil {
		f.Fatal(err)
	}
	data, err := res.EncodeBytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(append(append([]byte(nil), data...), "TRAILING JUNK"...))
	f.Add([]byte(`{"version": 3, "front": [{"index": 1}]}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		res, err := Decode(bytes.NewReader(in))
		if err != nil {
			return
		}
		first, err := res.EncodeBytes()
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		back, err := Decode(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v\n%s", err, first)
		}
		second, err := back.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\nvs\n%s", first, second)
		}
	})
}
