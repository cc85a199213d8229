package census_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"torusmesh/internal/census"
)

// streamBytes renders a census in NDJSON stream form.
func streamBytes(t *testing.T, c *census.Census) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := census.WriteStream(&buf, c); err != nil {
		t.Fatalf("write stream: %v", err)
	}
	return buf.Bytes()
}

// TestStreamRoundTrip: a census survives the NDJSON stream byte-for-
// byte (stream bytes are deterministic, and reading them back yields a
// census whose document encoding matches the original's).
func TestStreamRoundTrip(t *testing.T) {
	cfg := richConfig(24, 0)
	cfg.Congestion = true
	c := mustRun(t, cfg)
	data := streamBytes(t, c)
	if !bytes.HasPrefix(data, []byte(`{"stream":`)) {
		t.Errorf("stream does not start with the sniffable header prefix: %.40q", data)
	}
	if again := streamBytes(t, c); !bytes.Equal(data, again) {
		t.Error("stream encoding is not deterministic")
	}
	back, err := census.ReadStream(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("read stream: %v", err)
	}
	if !bytes.Equal(encode(t, c), encode(t, back)) {
		t.Error("census changed across a stream round trip")
	}
	// One header line plus one line per pair.
	if lines := bytes.Count(data, []byte("\n")); lines != 1+len(c.Results) {
		t.Errorf("stream has %d lines, want %d", lines, 1+len(c.Results))
	}
}

// TestStreamShardedRoundTrip: shard censuses stream too, and merging
// streamed-and-reread shards reproduces the unsharded census.
func TestStreamShardedRoundTrip(t *testing.T) {
	cfg := richConfig(24, 0)
	full := mustRun(t, cfg)
	parts := make([]*census.Census, 3)
	for s := range parts {
		scfg := cfg
		scfg.Shard, scfg.Shards = s, 3
		shard := mustRun(t, scfg)
		back, err := census.ReadStream(bytes.NewReader(streamBytes(t, shard)))
		if err != nil {
			t.Fatalf("shard %d: read stream: %v", s, err)
		}
		parts[s] = back
	}
	merged, err := census.Merge(parts...)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if !bytes.Equal(encode(t, full), encode(t, merged)) {
		t.Error("merge of streamed shards differs from the unsharded census")
	}
}

// TestStreamTruncation: the strict reader rejects a cut-off stream; the
// tolerant scanner returns exactly the intact prefix records.
func TestStreamTruncation(t *testing.T) {
	c := mustRun(t, richConfig(24, 0))
	data := streamBytes(t, c)

	// Cut in the middle of the final record.
	cut := data[:len(data)-7]
	if _, err := census.ReadStream(bytes.NewReader(cut)); err == nil {
		t.Error("strict read of a truncated stream succeeded")
	}
	h, recs, err := census.ScanStream(bytes.NewReader(cut))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if h.Size != c.Size || h.SpacePairs != c.SpacePairs {
		t.Errorf("scanned header %+v does not match census", h)
	}
	if len(recs) != len(c.Results)-1 {
		t.Errorf("scan recovered %d records, want %d", len(recs), len(c.Results)-1)
	}
	for i, r := range recs {
		if r.Index != c.Results[i].Index {
			t.Errorf("record %d has index %d, want %d", i, r.Index, c.Results[i].Index)
		}
	}

	// Garbage mid-stream: the scan stops before it and keeps the rest
	// for re-evaluation.
	lines := bytes.SplitAfter(data, []byte("\n"))
	garbled := bytes.Join([][]byte{lines[0], lines[1], []byte("{garbage\n")}, nil)
	garbled = append(garbled, bytes.Join(lines[2:], nil)...)
	_, recs, err = census.ScanStream(bytes.NewReader(garbled))
	if err != nil {
		t.Fatalf("scan of garbled stream: %v", err)
	}
	if len(recs) != 1 {
		t.Errorf("scan recovered %d records before the garbage, want 1", len(recs))
	}
}

// TestRepairStreamFile: repairing a stream with a damaged tail
// truncates exactly to the last intact record, so appended records form
// a well-formed stream again — the resume-after-crash journal cycle.
func TestRepairStreamFile(t *testing.T) {
	c := mustRun(t, richConfig(24, 0))
	data := streamBytes(t, c)
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	keep := 5
	// Header + keep records + a torn partial line.
	lines := bytes.SplitAfter(data, []byte("\n"))
	partial := append(bytes.Join(lines[:1+keep], nil), lines[1+keep][:len(lines[1+keep])/2]...)
	if err := os.WriteFile(path, partial, 0o644); err != nil {
		t.Fatal(err)
	}
	h, recs, err := census.RepairStreamFile(path)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if err := h.SameCensus(c.StreamHeader()); err != nil {
		t.Errorf("repaired header differs: %v", err)
	}
	if len(recs) != keep {
		t.Fatalf("repair recovered %d records, want %d", len(recs), keep)
	}
	// Append the remaining records as a resumed run would.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	app := census.NewStreamAppender(f)
	for i := keep; i < len(c.Results); i++ {
		if err := app.Write(&c.Results[i]); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// The repaired-then-appended journal is a complete, intact stream.
	back, err := census.ReadFileAny(path)
	if err != nil {
		t.Fatalf("read repaired journal: %v", err)
	}
	if !bytes.Equal(encode(t, c), encode(t, back)) {
		t.Error("repaired journal does not round-trip the census")
	}

	// An undamaged file is left byte-identical.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, recs, err := census.RepairStreamFile(path); err != nil || len(recs) != len(c.Results) {
		t.Fatalf("repair of intact stream: %d records, err %v", len(recs), err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, after) {
		t.Error("repair modified an intact stream")
	}
}

// TestRunInterrupt: the Interrupt hook stops a run between pairs and
// surfaces ErrInterrupted instead of a partial census.
func TestRunInterrupt(t *testing.T) {
	cfg := richConfig(24, 0)
	var evaluated atomic.Int64
	cfg.OnResult = func(*census.PairResult) { evaluated.Add(1) }
	cfg.Interrupt = func() bool { return evaluated.Load() >= 3 }
	_, err := census.Run(cfg)
	if err == nil {
		t.Fatal("interrupted run returned a census")
	}
	if !errors.Is(err, census.ErrInterrupted) {
		t.Errorf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if evaluated.Load() >= 64 {
		t.Errorf("interrupt did not stop the run early (%d pairs evaluated)", evaluated.Load())
	}

	// A hook that never fires changes nothing.
	clean := richConfig(24, 0)
	clean.Interrupt = func() bool { return false }
	c := mustRun(t, clean)
	ref := mustRun(t, richConfig(24, 0))
	if !bytes.Equal(encode(t, c), encode(t, ref)) {
		t.Error("a non-firing Interrupt hook changed the census")
	}
}

// TestStreamRejectsBadHeaders covers framing and schema version checks.
func TestStreamRejectsBadHeaders(t *testing.T) {
	bad := []struct{ name, doc string }{
		{"empty", ""},
		{"no newline after header", `{"stream":1,"version":3,"shards":1}`},
		{"wrong stream version", "{\"stream\":99,\"version\":3,\"shards\":1}\n"},
		{"wrong artifact version", "{\"stream\":1,\"version\":1,\"shards\":1}\n"},
		{"invalid shard", "{\"stream\":1,\"version\":3,\"shard\":4,\"shards\":2}\n"},
		{"not json", "hello\n"},
	}
	for _, tc := range bad {
		if _, err := census.NewStreamReader(strings.NewReader(tc.doc)); err == nil {
			t.Errorf("%s: reader accepted %q", tc.name, tc.doc)
		}
	}
}

// TestStreamAppenderResume: the journal pattern — write a header and
// some records, reopen with an appender for the rest — scans back as
// one complete stream.
func TestStreamAppenderResume(t *testing.T) {
	c := mustRun(t, richConfig(24, 0))
	var buf bytes.Buffer
	sw, err := census.NewStreamWriter(&buf, c.StreamHeader())
	if err != nil {
		t.Fatalf("stream writer: %v", err)
	}
	half := len(c.Results) / 2
	for i := 0; i < half; i++ {
		if err := sw.Write(&c.Results[i]); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	app := census.NewStreamAppender(&buf)
	for i := half; i < len(c.Results); i++ {
		if err := app.Write(&c.Results[i]); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	back, err := census.ReadStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(encode(t, c), encode(t, back)) {
		t.Error("appended stream does not round-trip the census")
	}
}

// TestStreamFileAndReadFileAny: both artifact forms load through
// ReadFileAny, and format sniffing picks the right decoder.
func TestStreamFileAndReadFileAny(t *testing.T) {
	c := mustRun(t, richConfig(16, 0))
	dir := t.TempDir()
	docPath := filepath.Join(dir, "census.json")
	streamPath := filepath.Join(dir, "census.ndjson")
	if err := c.WriteFile(docPath); err != nil {
		t.Fatalf("write document: %v", err)
	}
	if err := c.WriteStreamFile(streamPath); err != nil {
		t.Fatalf("write stream: %v", err)
	}
	for _, path := range []string{docPath, streamPath} {
		back, err := census.ReadFileAny(path)
		if err != nil {
			t.Fatalf("ReadFileAny(%s): %v", path, err)
		}
		if !bytes.Equal(encode(t, c), encode(t, back)) {
			t.Errorf("%s: artifact changed across ReadFileAny", path)
		}
	}
	if _, err := census.ReadFileAny(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("ReadFileAny of a missing file succeeded")
	}

	// ScanStreamFile over the stream form recovers everything.
	h, recs, err := census.ScanStreamFile(streamPath)
	if err != nil {
		t.Fatalf("ScanStreamFile: %v", err)
	}
	if err := h.SameCensus(c.StreamHeader()); err != nil {
		t.Errorf("scanned header differs: %v", err)
	}
	if len(recs) != len(c.Results) {
		t.Errorf("scan recovered %d records, want %d", len(recs), len(c.Results))
	}
}

// TestSameCensus: header comparison ignores the shard labels but
// rejects every census-defining axis.
func TestSameCensus(t *testing.T) {
	cfg := richConfig(24, 0)
	full := cfg.StreamHeader()
	shard := cfg
	shard.Shard, shard.Shards = 1, 3
	if err := shard.StreamHeader().SameCensus(full); err != nil {
		t.Errorf("shard labels should not matter: %v", err)
	}
	other := richConfig(36, 0)
	if err := other.StreamHeader().SameCensus(full); err == nil {
		t.Error("different sizes compared equal")
	}
	nometrics := cfg
	nometrics.Metrics = false
	if err := nometrics.StreamHeader().SameCensus(full); err == nil {
		t.Error("different metrics flags compared equal")
	}
}

// TestRunSkipAndOnResult: the resume filter drops exactly the reported
// pairs, and the streaming hook sees every evaluated pair exactly once.
func TestRunSkipAndOnResult(t *testing.T) {
	cfg := richConfig(24, 0)
	full := mustRun(t, cfg)
	seen := map[int]int{}
	cfg.Skip = func(i int) bool { return i%3 == 0 }
	cfg.OnResult = func(r *census.PairResult) { seen[r.Index]++ }
	partial := mustRun(t, cfg)
	wantPairs := 0
	for i := 0; i < full.SpacePairs; i++ {
		if i%3 != 0 {
			wantPairs++
		}
	}
	if partial.Pairs != wantPairs {
		t.Errorf("skipping census has %d pairs, want %d", partial.Pairs, wantPairs)
	}
	if len(seen) != wantPairs {
		t.Errorf("OnResult saw %d pairs, want %d", len(seen), wantPairs)
	}
	for idx, n := range seen {
		if idx%3 == 0 {
			t.Errorf("skipped pair %d was evaluated", idx)
		}
		if n != 1 {
			t.Errorf("pair %d hit OnResult %d times", idx, n)
		}
	}
	// The evaluated pairs carry the same results as the full run.
	byIndex := map[int]census.PairResult{}
	for _, r := range full.Results {
		byIndex[r.Index] = r
	}
	for _, r := range partial.Results {
		want := byIndex[r.Index]
		want.Wall = r.Wall
		if !reflect.DeepEqual(r, want) {
			t.Errorf("pair %d differs between full and skipping runs", r.Index)
		}
	}
}

// TestHistogramBlock: the artifact's histogram block exists exactly for
// metric censuses, tallies every embeddable pair, and agrees with a
// recount of the results and with the derived PeakCongestion view.
func TestHistogramBlock(t *testing.T) {
	cfg := richConfig(16, 0)
	cfg.Congestion = true
	c := mustRun(t, cfg)
	if len(c.Histograms) == 0 {
		t.Fatal("metrics census has no histogram block")
	}
	recount := map[string]map[int]int{}
	for _, r := range c.Results {
		if r.FailureStage != "" {
			continue
		}
		key := census.StrategyKey(r.Strategy)
		if recount[key] == nil {
			recount[key] = map[int]int{}
		}
		recount[key][r.Dilation]++
	}
	total := 0
	for key, h := range c.Histograms {
		dil, con := 0, 0
		for d, n := range h.Dilation {
			dil += n
			if recount[key][d] != n {
				t.Errorf("%s: dilation %d count %d disagrees with a recount of the results", key, d, n)
			}
		}
		for _, n := range h.Congestion {
			con += n
		}
		if dil != con {
			t.Errorf("%s: dilation block tallies %d pairs, congestion block %d", key, dil, con)
		}
		if dil != c.ByStrategy[key] {
			t.Errorf("%s: histogram tallies %d pairs, ByStrategy says %d", key, dil, c.ByStrategy[key])
		}
		peak := 0
		for load := range h.Congestion {
			if load > peak {
				peak = load
			}
		}
		if peak != c.PeakCongestion()[key] {
			t.Errorf("%s: histogram peak %d, PeakCongestion %d", key, peak, c.PeakCongestion()[key])
		}
		total += dil
	}
	if total != c.Embeddable {
		t.Errorf("histogram block covers %d pairs, want %d embeddable", total, c.Embeddable)
	}

	// The block travels through the JSON artifact.
	back, err := census.Decode(bytes.NewReader(encode(t, c)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(back.Histograms) != len(c.Histograms) {
		t.Errorf("decoded artifact has %d histogram strategies, want %d", len(back.Histograms), len(c.Histograms))
	}

	// Metrics-off censuses carry no block.
	plain := richConfig(16, 0)
	plain.Metrics = false
	pc := mustRun(t, plain)
	if pc.Histograms != nil {
		t.Error("metrics-off census has a histogram block")
	}
	var buf bytes.Buffer
	if err := census.Encode(&buf, pc); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "histograms") {
		t.Error("metrics-off artifact serializes a histogram block")
	}
}

// TestRepairHeaderlessJournal: a journal whose run was killed before
// its first record — leaving an empty file or a header line cut before
// its newline — must repair to an empty journal (zero header, no
// records, file truncated to zero bytes), not error out the resume
// path. A header-only journal with its newline intact repairs to its
// header and zero records.
func TestRepairHeaderlessJournal(t *testing.T) {
	c := mustRun(t, richConfig(24, 0))
	data := streamBytes(t, c)
	headerLine := data[:bytes.IndexByte(data, '\n')+1]
	dir := t.TempDir()

	for name, content := range map[string][]byte{
		"empty":       nil,
		"torn-header": headerLine[:len(headerLine)-1], // newline never hit disk
	} {
		path := filepath.Join(dir, name+".ndjson")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		h, recs, err := census.RepairStreamFile(path)
		if err != nil {
			t.Fatalf("%s: repair errored: %v", name, err)
		}
		if h.Stream != 0 || h.Version != 0 || len(h.Shapes) != 0 || len(recs) != 0 {
			t.Fatalf("%s: repair returned header %+v with %d records, want the zero header", name, h, len(recs))
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != 0 {
			t.Fatalf("%s: repaired journal holds %d bytes, want 0", name, len(after))
		}
		// The truncated-to-empty journal restarts cleanly: a fresh
		// header plus records reads back as a well-formed stream.
		f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := census.NewStreamWriter(f, c.StreamHeader())
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.Results {
			if err := sw.Write(&c.Results[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := census.ReadFileAny(path)
		if err != nil {
			t.Fatalf("%s: restarted journal does not read: %v", name, err)
		}
		if !bytes.Equal(encode(t, c), encode(t, back)) {
			t.Errorf("%s: restarted journal does not round-trip the census", name)
		}
	}

	// Header-only with its newline intact: a real (if empty) journal —
	// kept as is, not truncated, its header returned.
	path := filepath.Join(dir, "header-only.ndjson")
	if err := os.WriteFile(path, headerLine, 0o644); err != nil {
		t.Fatal(err)
	}
	h, recs, err := census.RepairStreamFile(path)
	if err != nil {
		t.Fatalf("header-only: %v", err)
	}
	if err := h.SameCensus(c.StreamHeader()); err != nil {
		t.Errorf("header-only: header differs: %v", err)
	}
	if len(recs) != 0 {
		t.Errorf("header-only: %d records, want 0", len(recs))
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, headerLine) {
		t.Error("header-only: repair modified an intact header line")
	}
	// The strict readers still refuse headerless streams outright.
	if _, err := census.NewStreamReader(bytes.NewReader(nil)); !errors.Is(err, census.ErrNoHeader) {
		t.Errorf("strict read of an empty stream: %v, want ErrNoHeader", err)
	}
	if _, err := census.ReadStream(bytes.NewReader(headerLine[:8])); !errors.Is(err, census.ErrNoHeader) {
		t.Errorf("strict read of a torn header: %v, want ErrNoHeader", err)
	}
}

// TestTornTailWithoutNewline: a final record line missing its trailing
// newline is a torn tail even when the bytes parse as valid JSON — the
// writer promises one Write per line, so a missing terminator means
// the record may be incomplete (e.g. a truncated number would still
// parse). IntactBytes must exclude it, the tolerant scan must drop it,
// and repair must truncate it so a resumed appender cannot glue a new
// record onto a possibly-partial one and duplicate the pair.
func TestTornTailWithoutNewline(t *testing.T) {
	c := mustRun(t, richConfig(24, 0))
	data := streamBytes(t, c)
	torn := data[:len(data)-1] // strip only the final newline: still valid JSON
	intactLen := bytes.LastIndexByte(torn, '\n') + 1

	sr, err := census.NewStreamReader(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := sr.Read()
		if err != nil {
			if !errors.Is(err, census.ErrTruncatedStream) {
				t.Fatalf("read %d: %v, want ErrTruncatedStream", n, err)
			}
			break
		}
		n++
	}
	if n != len(c.Results)-1 {
		t.Errorf("reader accepted %d records, want %d (the newline-less tail dropped)", n, len(c.Results)-1)
	}
	if got := sr.IntactBytes(); got != int64(intactLen) {
		t.Errorf("IntactBytes = %d, want %d (tail record excluded)", got, intactLen)
	}

	_, recs, err := census.ScanStream(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(c.Results)-1 {
		t.Errorf("scan recovered %d records, want %d", len(recs), len(c.Results)-1)
	}

	path := filepath.Join(t.TempDir(), "torn.ndjson")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, err = census.RepairStreamFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(c.Results)-1 {
		t.Errorf("repair recovered %d records, want %d", len(recs), len(c.Results)-1)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, torn[:intactLen]) {
		t.Errorf("repair left %d bytes, want %d (tail truncated)", len(after), intactLen)
	}
	// Re-appending the dropped record yields the full stream again.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := census.NewStreamAppender(f).Write(&c.Results[len(c.Results)-1]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := census.ReadFileAny(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, c), encode(t, back)) {
		t.Error("repaired-then-appended journal does not round-trip the census")
	}
}

// assertHistogramTopEdges checks the histogram top-edge contract of a
// census (shared with the golden test): for every strategy, the
// largest bucket key equals the strategy's largest measured value —
// the pair sitting exactly on the top boundary lands in the last
// bucket — and every embeddable result is bucketed (counts sum to the
// strategy tally).
func assertHistogramTopEdges(t *testing.T, c *census.Census) {
	t.Helper()
	maxDil, maxCon, count := map[string]int{}, map[string]int{}, map[string]int{}
	for i := range c.Results {
		r := &c.Results[i]
		if r.FailureStage != "" {
			continue
		}
		key := census.StrategyKey(r.Strategy)
		count[key]++
		maxDil[key] = max(maxDil[key], r.Dilation)
		maxCon[key] = max(maxCon[key], r.Congestion)
	}
	if len(count) == 0 {
		t.Fatal("census has no embeddable pairs")
	}
	for key, h := range c.Histograms {
		topDil, sumDil := 0, 0
		for d, n := range h.Dilation {
			sumDil += n
			topDil = max(topDil, d)
		}
		if topDil != maxDil[key] || h.Dilation[maxDil[key]] < 1 {
			t.Errorf("%s: top dilation bucket %d does not hold the boundary value %d", key, topDil, maxDil[key])
		}
		if sumDil != count[key] {
			t.Errorf("%s: dilation buckets tally %d pairs, want %d — a boundary value was dropped", key, sumDil, count[key])
		}
		topCon, sumCon := 0, 0
		for l, n := range h.Congestion {
			sumCon += n
			topCon = max(topCon, l)
		}
		if topCon != maxCon[key] || h.Congestion[maxCon[key]] < 1 {
			t.Errorf("%s: top congestion bucket %d does not hold the boundary value %d", key, topCon, maxCon[key])
		}
		if sumCon != count[key] {
			t.Errorf("%s: congestion buckets tally %d pairs, want %d — a boundary value was dropped", key, sumCon, count[key])
		}
	}
	// Every strategy with embeddable pairs has a histogram entry.
	for key := range count {
		if c.Histograms[key] == nil {
			t.Errorf("%s carried pairs but has no histogram entry", key)
		}
	}
}

// TestHistogramTopEdge: a pair whose measured dilation or congestion
// equals the largest value its strategy reaches — the top bucket
// boundary — must land in that last bucket, not fall off the end of
// the histogram.
func TestHistogramTopEdge(t *testing.T) {
	cfg := richConfig(16, 0)
	cfg.Congestion = true
	assertHistogramTopEdges(t, mustRun(t, cfg))
}

// TestRepairRefusesNonJournal: the headerless-repair path resets only
// files that plausibly are torn journals (empty, or starting with a
// prefix of the stream header). A newline-less file that is clearly
// something else — a mistyped -journal path at a pidfile, say — must
// error and stay intact, not be truncated to zero.
func TestRepairRefusesNonJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pidfile")
	content := []byte("12345")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := census.RepairStreamFile(path); err == nil {
		t.Fatal("repair accepted a non-journal file")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, content) {
		t.Fatalf("repair modified a non-journal file: %q", after)
	}
	// A genuinely torn header longer than the sniff prefix still
	// repairs.
	torn := filepath.Join(t.TempDir(), "torn.ndjson")
	if err := os.WriteFile(torn, []byte(`{"stream":1,"version":3,"si`), 0o644); err != nil {
		t.Fatal(err)
	}
	h, recs, err := census.RepairStreamFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if h.Stream != 0 || len(recs) != 0 {
		t.Fatalf("torn header repaired to %+v with %d records", h, len(recs))
	}
	if after, err := os.ReadFile(torn); err != nil || len(after) != 0 {
		t.Fatalf("torn header journal holds %d bytes after repair (err %v)", len(after), err)
	}
	// And a torn header shorter than the sniff prefix.
	short := filepath.Join(t.TempDir(), "short.ndjson")
	if err := os.WriteFile(short, []byte(`{"str`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := census.RepairStreamFile(short); err != nil {
		t.Fatalf("short torn header: %v", err)
	}
	if after, err := os.ReadFile(short); err != nil || len(after) != 0 {
		t.Fatalf("short torn header holds %d bytes after repair (err %v)", len(after), err)
	}
}
