// Artifact serialization and shard merging. A census serializes to a
// versioned JSON document whose encoding is deterministic (struct field
// order is fixed, map keys are sorted by encoding/json, and volatile
// timing fields are excluded), so equal censuses produce equal bytes —
// the property the shard/merge workflow and its CI diff rely on.

package census

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// intList renders shard indices as "2, 5, 7" for merge diagnostics.
func intList(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ", ")
}

// ArtifactVersion is the schema version stamped into every artifact.
// Decode rejects artifacts from other versions. The serialized form is
// pinned by the golden-file test (testdata/census-v4.golden.json): any
// change to it must bump this constant and regenerate the golden with
// `go test ./internal/census -run Golden -update`.
//
// Version history:
//
//	1: initial schema (metrics, congestion, shard merging).
//	2: placement search columns — top-level "placed" flag and
//	   "place_spec" settings string, per-pair "place" summary {desc,
//	   strategy, dilation, peak, avg_link, score, error}.
//	3: per-strategy "histograms" block (strategy -> {"dilation",
//	   "congestion"} cost-count maps) on metrics/congestion censuses;
//	   the NDJSON stream form (stream.go) carries the same version in
//	   its header line.
//	4: per-pair "hop_hist" route-length distribution (routed distance
//	   -> guest edge count) on congestion censuses.
const ArtifactVersion = 4

// Encode writes the census as deterministic, human-readable JSON.
func Encode(w io.Writer, c *Census) error {
	data, err := c.EncodeBytes()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// recordBytes is the output room EncodeBytes reserves per result: a
// metrics-and-congestion record of a size-360 census takes about 365
// bytes. A longer record, one with a placement summary, grows the
// buffer instead.
const recordBytes = 400

// EncodeBytes returns the census's artifact encoding: json.MarshalIndent
// of the census with a two-space indent, then a newline. Two censuses
// are interchangeable exactly when their encodings are equal.
//
// The results, the last member and nearly all of a large artifact's
// bytes, are encoded one record at a time into an output sized up
// front, at the depth MarshalIndent gives them. One MarshalIndent of
// the whole census would hold its compact encoding and a buffer of
// twice that beside the output: for a size-360 artifact of about 3 MB,
// 9.0 MB allocated per encoding instead of 4.0 MB.
func (c *Census) EncodeBytes() ([]byte, error) {
	head := *c
	head.Results = nil
	data, err := json.MarshalIndent(&head, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("census: encode: %v", err)
	}
	if c.Results == nil {
		return append(data, '\n'), nil
	}
	const tail = "null\n}" // the nil results member, then the document's end
	if !bytes.HasSuffix(data, []byte(`"results": `+tail)) {
		return nil, fmt.Errorf("census: encode: results are not the artifact's last member")
	}
	out := bytes.NewBuffer(make([]byte, 0, len(data)+recordBytes*len(c.Results)))
	out.Write(data[:len(data)-len(tail)])
	out.WriteByte('[')
	enc := json.NewEncoder(out)
	enc.SetIndent("    ", "  ")
	for i := range c.Results {
		if i > 0 {
			// Encode ends each record with a newline: the comma goes
			// before it.
			out.Truncate(out.Len() - 1)
			out.WriteByte(',')
		}
		out.WriteString("\n    ")
		if err := enc.Encode(&c.Results[i]); err != nil {
			return nil, fmt.Errorf("census: encode: %v", err)
		}
	}
	if len(c.Results) > 0 {
		out.Truncate(out.Len() - 1)
		out.WriteString("\n  ")
	}
	out.WriteString("]\n}\n")
	return out.Bytes(), nil
}

// WriteFile saves the artifact to path.
func (c *Census) WriteFile(path string) error {
	data, err := c.EncodeBytes()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Decode reads one artifact, rejecting incompatible schema versions,
// structurally invalid documents and anything but whitespace after the
// document.
func Decode(r io.Reader) (*Census, error) {
	var c Census
	dec := json.NewDecoder(r)
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("census: decode: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("census: decode: trailing data after the artifact")
	}
	if err := c.check("artifact"); err != nil {
		return nil, err
	}
	if c.ByStrategy == nil {
		c.ByStrategy = map[string]int{}
	}
	return &c, nil
}

// compatible reports why two artifacts cannot be merged, or nil.
func compatible(a, b *Header) error {
	switch {
	case a.Version != b.Version:
		return fmt.Errorf("versions %d and %d differ", a.Version, b.Version)
	case a.Size != b.Size:
		return fmt.Errorf("sizes %d and %d differ", a.Size, b.Size)
	case a.MaxDim != b.MaxDim:
		return fmt.Errorf("maxdim %d and %d differ", a.MaxDim, b.MaxDim)
	case a.Shards != b.Shards:
		return fmt.Errorf("shard counts %d and %d differ", a.Shards, b.Shards)
	case a.Metrics != b.Metrics:
		return fmt.Errorf("one census has metrics, the other does not")
	case a.Congestion != b.Congestion:
		return fmt.Errorf("one census has congestion, the other does not")
	case a.Placed != b.Placed:
		return fmt.Errorf("one census has placement results, the other does not")
	case a.PlaceSpec != b.PlaceSpec:
		return fmt.Errorf("placement search settings differ (%q vs %q)", a.PlaceSpec, b.PlaceSpec)
	case len(a.Shapes) != len(b.Shapes):
		return fmt.Errorf("shape lists differ")
	}
	for i := range a.Shapes {
		if a.Shapes[i] != b.Shapes[i] {
			return fmt.Errorf("shape lists differ at %d: %s vs %s", i, a.Shapes[i], b.Shapes[i])
		}
	}
	if a.SpacePairs != b.SpacePairs {
		return fmt.Errorf("pair spaces %d and %d differ", a.SpacePairs, b.SpacePairs)
	}
	return nil
}

// Merge combines the shard artifacts of one partitioned census into the
// full census. Every input must come from the same (size, maxdim,
// version, metrics, congestion, shape list) configuration and the same
// shard count m, and together the inputs must cover every shard
// 0..m-1 exactly once. The result is normalized to an unsharded census
// (shard 0/1) with aggregates recomputed, so it is bit-for-bit
// identical to what a single unsharded run would have produced.
func Merge(parts ...*Census) (*Census, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("census: merge of zero artifacts")
	}
	base := parts[0]
	seen := make(map[int]bool, base.Shards)
	var duplicated []int
	total := 0
	for _, p := range parts {
		if err := compatible(&base.Header, &p.Header); err != nil {
			return nil, fmt.Errorf("census: cannot merge: %v", err)
		}
		if seen[p.Shard] {
			duplicated = append(duplicated, p.Shard)
		}
		seen[p.Shard] = true
		total += len(p.Results)
	}
	// Name the offending shard indices, not just their count: an
	// operator re-driving a large sharded sweep needs to know which
	// shard files to re-run or drop.
	if len(duplicated) > 0 {
		sort.Ints(duplicated)
		return nil, fmt.Errorf("census: cannot merge: shard(s) %s of %d appear more than once",
			intList(duplicated), base.Shards)
	}
	var missing []int
	for s := 0; s < base.Shards; s++ {
		if !seen[s] {
			missing = append(missing, s)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("census: cannot merge: shard(s) %s of %d are missing",
			intList(missing), base.Shards)
	}
	results := make([]PairResult, 0, total)
	for _, p := range parts {
		results = append(results, p.Results...)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })
	for i := range results {
		if i > 0 && results[i].Index == results[i-1].Index {
			return nil, fmt.Errorf("census: cannot merge: pair %d appears twice", results[i].Index)
		}
		if results[i].Index < 0 || results[i].Index >= base.SpacePairs {
			return nil, fmt.Errorf("census: cannot merge: pair index %d outside space of %d", results[i].Index, base.SpacePairs)
		}
	}
	if len(results) != base.SpacePairs {
		return nil, fmt.Errorf("census: cannot merge: %d pairs cover a space of %d", len(results), base.SpacePairs)
	}
	out := &Census{Header: base.Header, Results: results}
	out.Shard, out.Shards = 0, 1
	out.Shapes = append([]string(nil), base.Shapes...)
	out.recount()
	return out, nil
}
