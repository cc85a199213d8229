// The NDJSON stream form of the census artifact: a versioned header
// line followed by one PairResult per line. A census too large to hold
// as one JSON document — or still being produced, one shard at a time,
// by the distributed driver — streams record by record instead: writers
// append complete lines as results arrive, and readers fold the lines
// back into a census without ever materializing a second copy.
//
// Two readers exist on purpose. ReadStream is strict: a clean,
// complete stream or an error — the right contract for shard transport
// between a worker process and the driver. ScanStream is the recovery
// reader behind -resume: it accepts a partial artifact (a run that was
// killed mid-write), returning every intact record and silently
// dropping the first damaged line and everything after it; re-running
// the dropped pairs is always safe because pair evaluation is
// deterministic.

package census

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// StreamVersion is the framing version stamped into every stream
// header. It versions the NDJSON layout (header line + record lines);
// the schema of the records themselves is versioned by ArtifactVersion,
// which the header also carries.
const StreamVersion = 1

// streamPrefix is the byte prefix every stream artifact starts with.
// The "stream" field is declared first in StreamHeader precisely so
// that format sniffing (ReadAny) is a prefix check, not a parse.
const streamPrefix = `{"stream":`

// ErrTruncatedStream reports a stream artifact that ends in the middle
// of a record line — the signature of a writer killed mid-append.
var ErrTruncatedStream = errors.New("census: stream artifact ends mid-record")

// ErrNoHeader reports a stream artifact with no intact header line: an
// empty file, or one whose writer was killed before the header's
// trailing newline reached disk. RepairStreamFile treats it as a
// repairable empty journal; the strict readers return it as an error.
var ErrNoHeader = errors.New("census: stream has no header line")

// StreamHeader is the first line of an NDJSON census stream: the
// census's Header, minus the aggregates (which are derived from the
// records and recomputed on read).
type StreamHeader struct {
	Stream int `json:"stream"` // StreamVersion; must stay the first field (see streamPrefix)
	Header
}

// StreamHeader returns the census's header line fields.
func (c *Census) StreamHeader() StreamHeader {
	return StreamHeader{Stream: StreamVersion, Header: c.Header}
}

// StreamHeader returns the header a census of this config would carry:
// what a worker stamps on its stream before any pair has finished.
func (cfg *Config) StreamHeader() StreamHeader {
	return StreamHeader{Stream: StreamVersion, Header: cfg.header()}
}

// validate rejects headers from other framing or schema versions and
// structurally invalid shard labels.
func (h StreamHeader) validate() error {
	if h.Stream != StreamVersion {
		return fmt.Errorf("census: stream version %d is incompatible (want %d)", h.Stream, StreamVersion)
	}
	return h.check("stream header")
}

// SameCensus reports whether two headers describe the same census
// configuration — everything except the shard labels, so a merged
// (0/1) journal can be compared against a worker's i/m stream. Callers
// that need the shard labels equal too compare them directly.
func (h StreamHeader) SameCensus(o StreamHeader) error {
	a, b := h.Header, o.Header
	a.Shard, a.Shards = 0, 1
	b.Shard, b.Shards = 0, 1
	return compatible(&a, &b)
}

// StreamWriter appends NDJSON census records to an underlying writer.
// Every record is written as one complete line in a single Write call,
// so a reader of a live or killed-mid-run stream sees only whole lines
// plus at most one truncated tail. Write is safe for concurrent use.
type StreamWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewStreamWriter writes the header line for h and returns a writer
// for its records.
func NewStreamWriter(w io.Writer, h StreamHeader) (*StreamWriter, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	line, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("census: encode stream header: %v", err)
	}
	if !bytes.HasPrefix(line, []byte(streamPrefix)) {
		return nil, fmt.Errorf("census: stream header does not start with %q", streamPrefix)
	}
	if _, err := w.Write(append(line, '\n')); err != nil {
		return nil, err
	}
	return &StreamWriter{w: w}, nil
}

// NewStreamAppender returns a record writer for a stream whose header
// line already exists — the resume path, where the journal is reopened
// for append and the caller has verified its header.
func NewStreamAppender(w io.Writer) *StreamWriter {
	return &StreamWriter{w: w}
}

// Write appends one record line.
func (sw *StreamWriter) Write(r *PairResult) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("census: encode stream record: %v", err)
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	_, err = sw.w.Write(append(line, '\n'))
	return err
}

// StreamReader reads an NDJSON census stream record by record.
type StreamReader struct {
	// Header is the validated header line, available immediately after
	// NewStreamReader returns.
	Header StreamHeader
	br     *bufio.Reader
	intact int64 // bytes consumed by the header and every decoded record
}

// NewStreamReader reads and validates the stream's header line.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReader(r)
	line, n, err := readLine(br)
	if err != nil {
		if err == io.EOF || err == ErrTruncatedStream {
			return nil, ErrNoHeader
		}
		return nil, err
	}
	var h StreamHeader
	if err := json.Unmarshal(line, &h); err != nil {
		return nil, fmt.Errorf("census: decode stream header: %v", err)
	}
	if err := h.validate(); err != nil {
		return nil, err
	}
	return &StreamReader{Header: h, br: br, intact: int64(n)}, nil
}

// Read returns the next record, io.EOF at a clean end of stream, or
// ErrTruncatedStream when the stream ends mid-line.
func (sr *StreamReader) Read() (*PairResult, error) {
	line, n, err := readLine(sr.br)
	if err != nil {
		return nil, err
	}
	var r PairResult
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, fmt.Errorf("census: decode stream record: %v", err)
	}
	sr.intact += int64(n)
	return &r, nil
}

// IntactBytes returns how many bytes of the stream held the header and
// the records decoded so far — the offset a damaged stream must be
// truncated to before it can be appended to again (RepairStreamFile).
func (sr *StreamReader) IntactBytes() int64 { return sr.intact }

// readLine returns the next newline-terminated line without its
// terminator, plus the full consumed byte count (terminator included):
// io.EOF at a clean end, ErrTruncatedStream when input ends before the
// terminator.
func readLine(br *bufio.Reader) ([]byte, int, error) {
	line, err := br.ReadBytes('\n')
	if err == io.EOF {
		if len(line) > 0 {
			return nil, 0, ErrTruncatedStream
		}
		return nil, 0, io.EOF
	}
	if err != nil {
		return nil, 0, err
	}
	return line[:len(line)-1], len(line), nil
}

// WriteStream writes the census in stream form: header line, then one
// record line per result in stored order. For a census produced by Run
// or Merge the stored order is pair-index order, so equal censuses
// produce equal stream bytes, mirroring Encode.
func WriteStream(w io.Writer, c *Census) error {
	sw, err := NewStreamWriter(w, c.StreamHeader())
	if err != nil {
		return err
	}
	for i := range c.Results {
		if err := sw.Write(&c.Results[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteStreamFile saves the census in stream form to path.
func (c *Census) WriteStreamFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := WriteStream(bw, c); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readAll reads the stream's remaining records: every intact one, up
// to the first damage (a truncated or undecodable line), which it
// returns as the error — nil at a clean end of stream. It is the one
// record loop of the whole-stream readers, which differ only in what
// they make of the damage.
func (sr *StreamReader) readAll() ([]PairResult, error) {
	var recs []PairResult
	for {
		rec, err := sr.Read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, *rec)
	}
}

// ReadStream reads a complete stream artifact strictly: any truncated
// or undecodable line is an error. Aggregates are recomputed from the
// records, so the result is interchangeable with the census the stream
// was written from.
func ReadStream(r io.Reader) (*Census, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	recs, err := sr.readAll()
	if err != nil {
		return nil, err
	}
	c := &Census{Header: sr.Header.Header, Results: recs}
	c.recount()
	return c, nil
}

// ScanStream is the tolerant reader behind resume: it returns every
// intact record of a possibly partial stream, stopping (without error)
// at the first truncated or undecodable line. Only the header must be
// intact. Records after a damaged line are dropped too — their pairs
// re-evaluate deterministically, so dropping is always safe.
func ScanStream(r io.Reader) (StreamHeader, []PairResult, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return StreamHeader{}, nil, err
	}
	recs, _ := sr.readAll()
	return sr.Header, recs, nil
}

// ScanStreamFile is ScanStream over a file. It never modifies the
// file, so it is safe on a journal another process is still appending
// to (workers resuming against a live journal).
func ScanStreamFile(path string) (StreamHeader, []PairResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return StreamHeader{}, nil, err
	}
	defer f.Close()
	h, recs, err := ScanStream(f)
	if err != nil {
		return StreamHeader{}, nil, fmt.Errorf("%s: %v", path, err)
	}
	return h, recs, nil
}

// RepairStreamFile scans a possibly partial stream artifact and
// truncates any damaged tail (a line cut mid-write, and everything
// after it) in place, returning the header and the intact records.
// This is the open-for-resume primitive: after it returns, appending
// record lines to the file yields a well-formed stream again — without
// it, the first appended record would glue onto the partial tail and
// hide every later record from all future scans.
//
// A journal whose writer died before (or during) its header write — an
// empty file, or a lone header line cut before its newline — is not an
// error here: the file is truncated to empty and the zero StreamHeader
// is returned with no records, so the resume path can write a fresh
// header and start over instead of refusing a journal that simply
// never got going. Callers detect this case by the zero header
// (Stream == 0). Never call RepairStreamFile on a journal another
// process is still writing; use ScanStreamFile there.
func RepairStreamFile(path string) (StreamHeader, []PairResult, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return StreamHeader{}, nil, err
	}
	defer f.Close()
	sr, err := NewStreamReader(f)
	if errors.Is(err, ErrNoHeader) {
		// Only a file that actually looks like a torn journal — empty,
		// or starting with (a prefix of) the stream header prefix — is
		// reset. Anything else is some other newline-less file the
		// caller mistyped a path to; destroying it would be worse than
		// the error.
		head := make([]byte, len(streamPrefix))
		n, rerr := f.ReadAt(head, 0)
		if rerr != nil && rerr != io.EOF {
			return StreamHeader{}, nil, fmt.Errorf("%s: %v", path, rerr)
		}
		head = head[:n]
		prefix := []byte(streamPrefix)
		if n > 0 && !bytes.HasPrefix(head, prefix) && !bytes.HasPrefix(prefix, head) {
			return StreamHeader{}, nil, fmt.Errorf("%s: not a stream journal: %v", path, err)
		}
		if terr := f.Truncate(0); terr != nil {
			return StreamHeader{}, nil, fmt.Errorf("%s: truncate headerless journal: %v", path, terr)
		}
		return StreamHeader{}, nil, nil
	}
	if err != nil {
		return StreamHeader{}, nil, fmt.Errorf("%s: %v", path, err)
	}
	recs, damage := sr.readAll()
	if damage != nil {
		if err := f.Truncate(sr.IntactBytes()); err != nil {
			return StreamHeader{}, nil, fmt.Errorf("%s: truncate damaged tail: %v", path, err)
		}
	}
	return sr.Header, recs, nil
}

// ReadAny decodes an artifact in either form — the JSON document of
// Encode or the NDJSON stream of WriteStream — sniffing the format from
// its first bytes.
func ReadAny(r io.Reader) (*Census, error) {
	br := bufio.NewReader(r)
	prefix, err := br.Peek(len(streamPrefix))
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("census: read: %w", err)
	}
	if bytes.Equal(prefix, []byte(streamPrefix)) {
		return ReadStream(br)
	}
	return Decode(br)
}

// ReadFileAny loads an artifact from path in either form (ReadAny).
func ReadFileAny(path string) (*Census, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := ReadAny(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return c, nil
}
