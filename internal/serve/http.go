// The HTTP surface of the placement service. The service endpoints:
//
//	GET  /place?from=torus:8x2&to=mesh:4x4[&wait=1][&table=1]
//	GET  /artifact?from=...&to=...
//	GET  /status
//	POST /warm          (body: a census artifact, JSON or NDJSON)
//
// plus the observability endpoints mounted from internal/obs: GET
// /metrics (Prometheus text exposition of the server's registry), GET
// /statusz (the same registry as JSON), and — when Config.Pprof is set
// — the /debug/pprof/ suite.
//
// /place answers in the versioned Response schema below; /artifact
// serves the raw stored place artifact (404 until the pair's search
// has finished) so clients and CI can byte-compare against `place
// -json` output; /warm accepts a sweep/sweepd census artifact in
// either encoding and pre-seeds the cache from it. A cold-pair /place
// against a full search queue answers 429 with a Retry-After header.
//
// A /place body is the bytes json.Encoder with a two-space indent
// writes for the answer's Response, built member by member so that a
// hot request reflects over nothing:
//
//   - the head: schema, the request's guest and host, the entry's
//     canonical names (formatted once per entry) and, for a relabeled
//     guest, guest_perm, appended by hand;
//   - the tier's members: tier and search, then search_error, baseline
//     or result where the Response carries them. A searched entry
//     encodes its members once, from its result, on its first
//     searched-tier answer; a baseline-tier answer encodes them per
//     request;
//   - with table=1, placement, encoded per request;
//
// then the closing brace. Every encoded member goes through one member
// encoder, so there is one body format; the whole-Response encoding is
// the test oracle.

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"

	"torusmesh/internal/census"
	"torusmesh/internal/grid"
	"torusmesh/internal/obs"
	"torusmesh/internal/place"
)

// ResponseSchemaVersion versions the /place wire format. Bump it on
// any shape change and regenerate the goldens (go test ./internal/serve
// -run Golden -update).
const ResponseSchemaVersion = 1

// Response is one /place answer: the schema clients decode into. The
// handler writes it member by member (placeBody), in field order.
type Response struct {
	Schema int `json:"schema"`
	// Guest and Host echo the request; CanonicalGuest/CanonicalHost
	// are the cache identity actually served, with GuestPerm the axis
	// permutation between the two labelings (absent = identity; host
	// axes are never permuted — see catalog's canonical-pair notes).
	Guest          string `json:"guest"`
	Host           string `json:"host"`
	CanonicalGuest string `json:"canonical_guest"`
	CanonicalHost  string `json:"canonical_host"`
	GuestPerm      []int  `json:"guest_perm,omitempty"`
	// Tier is "baseline" or "searched"; Search reports the background
	// search ("queued", "running", "done", "failed"), with SearchError
	// set when failed.
	Tier        string `json:"tier"`
	Search      string `json:"search"`
	SearchError string `json:"search_error,omitempty"`
	// Baseline is set on the baseline tier; Result — the full search
	// artifact document — on the searched tier.
	Baseline *place.Candidate `json:"baseline,omitempty"`
	Result   *place.Result    `json:"result,omitempty"`
	// Placement (with ?table=1) is the served placement table in the
	// request's own labeling: placement[guest rank] = host rank. On
	// the searched tier it is the front's winning candidate.
	Placement []int `json:"placement,omitempty"`
}

// errorResponse is the JSON error body of every non-200 answer.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP interface: the service endpoints
// (each behind a per-endpoint latency histogram) plus the registry's
// /metrics and /statusz, and /debug/pprof/ when Config.Pprof is set.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/place", s.timed("place", s.handlePlace))
	mux.HandleFunc("/artifact", s.timed("artifact", s.handleArtifact))
	mux.HandleFunc("/status", s.timed("status", s.handleStatus))
	mux.HandleFunc("/warm", s.timed("warm", s.handleWarm))
	obs.Mount(mux, s.reg, s.cfg.Pprof)
	return mux
}

// timed wraps one endpoint in its latency histogram
// (placed_http_seconds{endpoint=...}), on the server's clock so tests
// can pin exact expositions.
func (s *Server) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	s.reg.Describe("placed_http_seconds", "HTTP request latency, by endpoint.")
	hist := s.reg.Histogram("placed_http_seconds", obs.DefDurationBuckets(), obs.L("endpoint", endpoint))
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		h(w, r)
		hist.Observe(s.now().Sub(start).Seconds())
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// errorCode maps a Place error to its HTTP status.
func errorCode(err error) int {
	switch {
	case errors.Is(err, ErrBadPair):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnembeddable):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrBacklogged):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// setRetryAfter adds the Retry-After header a backpressure refusal
// carries (whole seconds, rounded up).
func setRetryAfter(w http.ResponseWriter, err error) {
	var bp *backpressureError
	if errors.As(err, &bp) {
		secs := int(math.Ceil(bp.retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
}

// pairParams parses the from/to query parameters shared by /place and
// /artifact.
func pairParams(q url.Values) (g, h grid.Spec, err error) {
	from, to := q.Get("from"), q.Get("to")
	if from == "" || to == "" {
		return g, h, errors.New("both from and to are required, e.g. ?from=torus:8x2&to=mesh:4x4")
	}
	if g, err = grid.ParseSpec(from); err != nil {
		return g, h, err
	}
	if h, err = grid.ParseSpec(to); err != nil {
		return g, h, err
	}
	return g, h, nil
}

func boolParam(q url.Values, name string) bool {
	v := q.Get(name)
	return v == "1" || v == "true"
}

func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	g, h, err := pairParams(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	a, err := s.Place(r.Context(), g, h, boolParam(q, "wait"))
	if err != nil {
		setRetryAfter(w, err)
		writeError(w, errorCode(err), "%v", err)
		return
	}
	body, err := s.placeBody(g, h, a, boolParam(q, "table"))
	if err != nil {
		writeError(w, errorCode(err), "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// placeBody is the /place body answering the request g -> h with a:
// the head, the tier's members, placement with table=1, and the
// closing brace.
func (s *Server) placeBody(g, h grid.Spec, a *Answer, table bool) ([]byte, error) {
	var searched []byte
	if a.Tier == TierSearched {
		var err error
		if searched, err = a.e.searchedMembers(); err != nil {
			return nil, err
		}
	}
	m := members{buf: make([]byte, 0, 256+len(searched))}
	m.head(g, h, a)
	if a.Tier == TierSearched {
		m.buf = append(m.buf, searched...)
	} else {
		m.tier(a)
	}
	if table {
		placement, err := s.Table(a)
		if err != nil {
			return nil, err
		}
		m.add("placement", placement)
	}
	m.buf = append(m.buf, "\n}\n"...)
	return m.buf, m.err
}

// searchedMembers returns the searched tier's members, tier, search and
// result, encoded from the entry's result on its first searched-tier
// answer and kept, at their length, for every later one.
func (e *entry) searchedMembers() ([]byte, error) {
	e.membersOnce.Do(func() {
		var m members
		m.tier(&Answer{Tier: TierSearched, State: SearchDone, Result: e.res})
		e.members, e.membersErr = bytes.Clone(m.buf), m.err
	})
	return e.members, e.membersErr
}

// members appends members of a Response object to buf, keeping the
// first encoding error.
type members struct {
	buf []byte
	err error
}

// add is the member encoder: it appends `,\n  "name": value`, the value
// encoded by encoding/json (HTML-escaped, as json.Encoder escapes) and
// indented one level, as json.Encoder with a two-space indent places it
// inside the object.
func (m *members) add(name string, v any) {
	if m.err != nil {
		return
	}
	enc, err := json.Marshal(v)
	if err != nil {
		m.err = err
		return
	}
	m.buf = append(m.buf, ",\n  \""...)
	m.buf = append(m.buf, name...)
	m.buf = append(m.buf, "\": "...)
	buf := bytes.NewBuffer(m.buf)
	m.err = json.Indent(buf, enc, "  ", "  ")
	m.buf = buf.Bytes()
}

// tier appends the answer's members after the head: tier and search,
// then search_error, baseline and result where the Response carries
// them.
func (m *members) tier(a *Answer) {
	m.add("tier", a.Tier)
	m.add("search", a.State.String())
	if a.SearchErr != nil {
		m.add("search_error", a.SearchErr.Error())
	}
	if a.Baseline != nil {
		m.add("baseline", a.Baseline)
	}
	if a.Result != nil {
		m.add("result", a.Result)
	}
}

// head opens the object and appends the members no encoder needs to
// reflect over: schema, the request's guest and host (the entry's
// names when the request names the canonical specs), the canonical
// names and, for a relabeled guest, guest_perm.
func (m *members) head(g, h grid.Spec, a *Answer) {
	e := a.e
	m.buf = append(m.buf, "{\n  \"schema\": "...)
	m.buf = strconv.AppendInt(m.buf, ResponseSchemaVersion, 10)
	m.buf = append(m.buf, ",\n  \"guest\": "...)
	m.buf = appendSpecName(m.buf, g, e.key.Guest, e.guestName)
	m.buf = append(m.buf, ",\n  \"host\": "...)
	m.buf = appendSpecName(m.buf, h, e.key.Host, e.hostName)
	m.buf = append(m.buf, ",\n  \"canonical_guest\": "...)
	m.buf = append(m.buf, e.guestName...)
	m.buf = append(m.buf, ",\n  \"canonical_host\": "...)
	m.buf = append(m.buf, e.hostName...)
	if !a.Key.Identity() {
		m.buf = append(m.buf, ",\n  \"guest_perm\": ["...)
		for i, v := range a.Key.GuestPerm {
			if i > 0 {
				m.buf = append(m.buf, ',')
			}
			m.buf = append(m.buf, "\n    "...)
			m.buf = strconv.AppendInt(m.buf, int64(v), 10)
		}
		m.buf = append(m.buf, "\n  ]"...)
	}
}

// appendSpecName appends the JSON string of sp's name: name, the
// formatted name of canon, when sp is canon.
func appendSpecName(dst []byte, sp, canon grid.Spec, name []byte) []byte {
	if sp.Kind == canon.Kind && sp.Shape.Equal(canon.Shape) {
		return append(dst, name...)
	}
	return appendName(dst, sp)
}

// appendName appends sp's name as a JSON string. A name is a kind,
// digits, x and parentheses, none of which JSON escapes.
func appendName(dst []byte, sp grid.Spec) []byte {
	dst = append(dst, '"')
	dst = append(dst, sp.String()...)
	return append(dst, '"')
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	g, h, err := pairParams(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	artifact, err := s.Artifact(g, h)
	if err != nil {
		writeError(w, errorCode(err), "%v", err)
		return
	}
	if artifact == nil {
		writeError(w, http.StatusNotFound, "no searched front for this pair yet; request /place to start one")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(artifact)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.Status())
}

func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a census artifact (JSON or NDJSON stream)")
		return
	}
	c, err := census.ReadAny(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ws, err := s.WarmCensus(c)
	if err != nil {
		writeError(w, errorCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ws)
}
