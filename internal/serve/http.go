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

package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"torusmesh/internal/census"
	"torusmesh/internal/grid"
	"torusmesh/internal/obs"
	"torusmesh/internal/place"
)

// ResponseSchemaVersion versions the /place wire format. Bump it on
// any shape change and regenerate the golden (go test ./internal/serve
// -run TestHTTPPlaceGolden -update).
const ResponseSchemaVersion = 1

// Response is one /place answer.
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
func pairParams(r *http.Request) (g, h grid.Spec, err error) {
	q := r.URL.Query()
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

func boolParam(r *http.Request, name string) bool {
	v := r.URL.Query().Get(name)
	return v == "1" || v == "true"
}

func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	g, h, err := pairParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	a, err := s.Place(r.Context(), g, h, boolParam(r, "wait"))
	if err != nil {
		setRetryAfter(w, err)
		writeError(w, errorCode(err), "%v", err)
		return
	}
	resp := &Response{
		Schema:         ResponseSchemaVersion,
		Guest:          g.String(),
		Host:           h.String(),
		CanonicalGuest: a.Key.Guest.String(),
		CanonicalHost:  a.Key.Host.String(),
		Tier:           string(a.Tier),
		Search:         a.State.String(),
		Baseline:       a.Baseline,
		Result:         a.Result,
	}
	if !a.Key.Identity() {
		resp.GuestPerm = a.Key.GuestPerm
	}
	if a.SearchErr != nil {
		resp.SearchError = a.SearchErr.Error()
	}
	if boolParam(r, "table") {
		table, err := s.Table(a)
		if err != nil {
			writeError(w, errorCode(err), "%v", err)
			return
		}
		resp.Placement = table
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	g, h, err := pairParams(r)
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
