// Artifact serialization. A search result serializes to a versioned
// JSON document whose encoding is deterministic for a given Config —
// struct field order is fixed, and the fields that depend on worker
// scheduling (pruned count) or wall time are excluded — so repeated
// searches of the same pair produce identical bytes, the property the
// CI smoke diff relies on.

package place

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ArtifactVersion is the schema version stamped into every artifact.
// Decode rejects artifacts from other versions.
//
// Version history:
//
//	1: single scalarized winner (baseline + best).
//	2: Pareto-front search — the "front" block (non-dominated
//	   candidates over dilation/peak/avg-link in cost order), the
//	   mid-rotation candidate fields ("mid_rot"), and the annealing
//	   refinement fields ("annealed", "anneal_wins", "seed", and the
//	   per-candidate "annealed"/"annealed_from" provenance).
//	3: incremental annealing engine — seeds drawn from the whole
//	   scored set (front first; "anneal_seeds_skipped" reports cap
//	   truncation), the size gate lifted, the "moves" repertoire
//	   token in the search spec, and congestion pruning disabled
//	   under annealing. Fronts from annealed searches are not
//	   comparable across the bump, so pre-upgrade journals and shard
//	   artifacts must not fold into post-upgrade searches.
const ArtifactVersion = 3

// Encode writes the result as deterministic, human-readable JSON.
func Encode(w io.Writer, r *Result) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("place: encode: %v", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// EncodeBytes returns the result's artifact encoding.
func (r *Result) EncodeBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteFile saves the artifact to path.
func (r *Result) WriteFile(path string) error {
	data, err := r.EncodeBytes()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Decode reads one artifact, rejecting incompatible schema versions
// and anything but whitespace after the document. Decoded results
// carry costs only — the winning embedding itself is not serialized
// and must be rebuilt by a fresh Search.
func Decode(r io.Reader) (*Result, error) {
	var res Result
	dec := json.NewDecoder(r)
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("place: decode: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("place: decode: trailing data after the artifact")
	}
	if res.Version != ArtifactVersion {
		return nil, fmt.Errorf("place: artifact version %d is incompatible (want %d)", res.Version, ArtifactVersion)
	}
	return &res, nil
}
