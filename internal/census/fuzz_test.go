// Fuzz targets for the NDJSON journal readers. The properties pinned
// here are the ones the resume path stakes correctness on:
//
//   - ScanStream (tolerant) accepts a superset of ReadStream (strict):
//     whenever the tolerant reader rejects a stream, so does the
//     strict one.
//   - RepairStreamFile never errors on input ScanStream accepts, and
//     repairs it to exactly the intact prefix (IntactBytes), after
//     which the strict reader accepts the file and appending records
//     yields a well-formed journal again.
//   - Repair is idempotent, and a failed repair leaves the file
//     untouched (it must never destroy a mistyped non-journal path).

package census

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzHeader is a minimal valid stream header for seed corpus
// construction.
func fuzzHeader() StreamHeader {
	return StreamHeader{Stream: StreamVersion, Header: Header{
		Version: ArtifactVersion,
		Size:    8,
		Shards:  1,
		Metrics: true,
		Shapes:  []string{"8", "4x2", "2x2x2"},
	}}
}

// fuzzStreamBytes builds a well-formed two-record journal.
func fuzzStreamBytes(tb testing.TB) []byte {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, fuzzHeader())
	if err != nil {
		tb.Fatal(err)
	}
	records := []PairResult{
		{Index: 0, Guest: "torus(4x2)", Host: "mesh(4x2)", Strategy: "torus-to-mesh", Dilation: 2,
			HopHist: map[int]int{1: 10, 2: 2}},
		{Index: 3, Guest: "ring(8)", Host: "torus(2x2x2)", Failure: "no construction", FailureStage: "construct"},
	}
	for i := range records {
		if err := sw.Write(&records[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// addSeedCorpus feeds both fuzz targets the same journal shapes: a
// clean stream, torn tails at several offsets, a header-only journal,
// a header cut before its newline, an empty file, plain garbage, and
// the non-stream census artifact from testdata.
func addSeedCorpus(f *testing.F) {
	valid := fuzzStreamBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])                   // record torn mid-line
	f.Add(valid[:bytes.IndexByte(valid, '\n')+1]) // header only
	f.Add(valid[:bytes.IndexByte(valid, '\n')])   // header cut before its newline
	f.Add([]byte{})
	f.Add([]byte("hello, not a journal\n"))
	f.Add([]byte(`{"stream":9,"version":9}` + "\n")) // wrong versions
	if golden, err := os.ReadFile(filepath.Join("testdata", "census-v4.golden.json")); err == nil {
		f.Add(golden)
	}
}

// readStreamPath is ReadStream over a file — the strict acceptance
// check the fuzz invariants use after repair/append.
func readStreamPath(path string) (*Census, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadStream(f)
}

func sameRecords(a, b []PairResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FuzzScanStream: every input the tolerant scanner accepts must repair
// cleanly to its intact prefix and then satisfy the strict reader.
func FuzzScanStream(f *testing.F) {
	addSeedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, recs, err := ScanStream(bytes.NewReader(data))
		if err != nil {
			// Tolerant rejection implies strict rejection.
			if _, serr := ReadStream(bytes.NewReader(data)); serr == nil {
				t.Fatal("ScanStream rejected a stream ReadStream accepts")
			}
			return
		}
		if verr := h.validate(); verr != nil {
			t.Fatalf("ScanStream returned an invalid header: %v", verr)
		}

		// IntactBytes marks the scannable prefix: re-scanning it must
		// reproduce the scan, and the strict reader must accept it.
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("NewStreamReader failed on scannable input: %v", err)
		}
		for {
			if _, err := sr.Read(); err != nil {
				break
			}
		}
		ib := sr.IntactBytes()
		if ib < 0 || ib > int64(len(data)) {
			t.Fatalf("IntactBytes %d out of range [0, %d]", ib, len(data))
		}
		ph, precs, perr := ScanStream(bytes.NewReader(data[:ib]))
		if perr != nil {
			t.Fatalf("intact prefix does not scan: %v", perr)
		}
		if !reflect.DeepEqual(ph, h) || !sameRecords(precs, recs) {
			t.Fatal("scanning the intact prefix diverged from scanning the full input")
		}
		strict, serr := ReadStream(bytes.NewReader(data[:ib]))
		if serr != nil {
			t.Fatalf("strict reader rejects the intact prefix: %v", serr)
		}
		if !sameRecords(strict.Results, recs) {
			t.Fatal("strict read of the intact prefix diverged from the scan")
		}

		// Repair truncates to exactly the intact prefix.
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rh, rrecs, rerr := RepairStreamFile(path)
		if rerr != nil {
			t.Fatalf("repair errored on scannable input: %v", rerr)
		}
		if !reflect.DeepEqual(rh, h) || !sameRecords(rrecs, recs) {
			t.Fatal("repair returned different header/records than the scan")
		}
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(repaired, data[:ib]) {
			t.Fatalf("repair left %d bytes, want the %d-byte intact prefix", len(repaired), ib)
		}

		// The repaired journal is strictly readable and appendable.
		if _, err := readStreamPath(path); err != nil {
			t.Fatalf("strict read after repair: %v", err)
		}
		fd, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec := PairResult{Index: 999, Guest: "ring(8)", Host: "line(8)"}
		if err := NewStreamAppender(fd).Write(&rec); err != nil {
			t.Fatal(err)
		}
		fd.Close()
		after, err := readStreamPath(path)
		if err != nil {
			t.Fatalf("strict read after append: %v", err)
		}
		if len(after.Results) != len(recs)+1 {
			t.Fatalf("append after repair: %d records, want %d", len(after.Results), len(recs)+1)
		}
	})
}

// FuzzRepairStreamFile: repair is idempotent, resets only torn
// journals, and leaves files it rejects untouched.
func FuzzRepairStreamFile(f *testing.F) {
	addSeedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		h, recs, err := RepairStreamFile(path)
		if err != nil {
			// A rejected file must be byte-identical to what it was.
			after, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(after, data) {
				t.Fatal("failed repair modified the file")
			}
			return
		}
		first, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if h.Stream == 0 {
			// The headerless-journal reset: the file must now be empty
			// with no records reported.
			if len(first) != 0 || len(recs) != 0 {
				t.Fatalf("headerless reset left %d bytes, %d records", len(first), len(recs))
			}
		} else if _, err := readStreamPath(path); err != nil {
			t.Fatalf("strict read after repair: %v", err)
		}

		// Idempotence: a second repair changes nothing.
		h2, recs2, err := RepairStreamFile(path)
		if err != nil {
			t.Fatalf("second repair errored: %v", err)
		}
		second, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatal("repair is not idempotent on file bytes")
		}
		if !reflect.DeepEqual(h, h2) || !sameRecords(recs, recs2) {
			t.Fatal("repair is not idempotent on header/records")
		}
	})
}

// FuzzCensusDecode: the artifact decoder behind `sweep -merge` and
// `placed` warming never panics, and any input it accepts re-encodes to
// bytes that decode again and re-encode identically — so an artifact
// is a fixed point of the codec after one round. The seed is the
// golden artifact.
func FuzzCensusDecode(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "census-v4.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(append(append([]byte(nil), golden...), "TRAILING JUNK"...))
	f.Add([]byte(`{"version": 4, "shards": 1, "results": [{"index": 1, "hop_hist": {"01": 2}}]}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := Decode(bytes.NewReader(in))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Encode(&first, c); err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		back, err := Decode(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded artifact does not decode: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := Encode(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
