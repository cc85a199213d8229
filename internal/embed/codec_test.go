package embed

import (
	"encoding/json"
	"strings"
	"testing"

	"torusmesh/internal/grid"
	"torusmesh/internal/perm"
)

func TestExportImportRoundTrip(t *testing.T) {
	e, err := Permute(grid.TorusSpec(4, 2, 3), perm.Perm{2, 0, 1}, grid.Torus)
	if err != nil {
		t.Fatal(err)
	}
	data, err := Export(e)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Import(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.From.String() != e.From.String() || back.To.String() != e.To.String() {
		t.Errorf("specs changed: %s -> %s", back.From, back.To)
	}
	if back.Strategy != e.Strategy || back.Predicted != e.Predicted {
		t.Errorf("metadata changed: %q %d", back.Strategy, back.Predicted)
	}
	for x := 0; x < e.From.Size(); x++ {
		if mapIndex(back, x) != mapIndex(e, x) {
			t.Fatalf("table differs at %d", x)
		}
	}
}

func TestImportRejectsCorruption(t *testing.T) {
	e, _ := Identity(grid.LineSpec(4), grid.LineSpec(4))
	data, err := Export(e)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the table: duplicate an entry.
	var enc Encoded
	if err := json.Unmarshal(data, &enc); err != nil {
		t.Fatal(err)
	}
	enc.Table[1] = enc.Table[0]
	bad, _ := json.Marshal(enc)
	if _, err := Import(bad); err == nil {
		t.Error("duplicate table imported")
	}
	// Corrupt the measured dilation claim.
	if err := json.Unmarshal(data, &enc); err != nil {
		t.Fatal(err)
	}
	enc.Measured = 99
	bad2, _ := json.Marshal(enc)
	if _, err := Import(bad2); err == nil || !strings.Contains(err.Error(), "claims") {
		t.Errorf("wrong-dilation file imported: %v", err)
	}
	// Garbage bytes.
	if _, err := Import([]byte("not json")); err == nil {
		t.Error("garbage imported")
	}
	// Bad kind.
	if err := json.Unmarshal(data, &enc); err != nil {
		t.Fatal(err)
	}
	enc.GuestKind = "blob"
	bad3, _ := json.Marshal(enc)
	if _, err := Import(bad3); err == nil {
		t.Error("bad kind imported")
	}
	// Bad shape.
	if err := json.Unmarshal(data, &enc); err != nil {
		t.Fatal(err)
	}
	enc.HostShape = []int{1}
	bad4, _ := json.Marshal(enc)
	if _, err := Import(bad4); err == nil {
		t.Error("bad shape imported")
	}
}
