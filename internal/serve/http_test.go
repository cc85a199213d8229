package serve

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"torusmesh/internal/census"
	"torusmesh/internal/embed"
	"torusmesh/internal/grid"
	"torusmesh/internal/place"
)

// update regenerates the golden wire-format files:
//
//	go test ./internal/serve -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden byte-compares a response body against its pinned golden
// file, so any wire-format drift is a reviewed diff (the same pattern
// as the census artifact golden).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/serve -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its golden pin.\nIf the change is intentional, bump the schema version and regenerate with -update.\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// get fetches a path and returns status and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestHTTPSearchedGolden pins the searched-tier /place response and
// the /status document for the README's worked example pair,
// torus(8x2) -> mesh(4x4).
func TestHTTPSearchedGolden(t *testing.T) {
	srv := newTestServer(t, testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/place?from=torus:8x2&to=mesh:4x4&wait=1&table=1")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	checkGolden(t, "placed-v1-searched.golden.json", body)

	srv.Flush() // settle the worker's counters before snapshotting
	code, body = get(t, ts, "/status")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	checkGolden(t, "placed-v2-status.golden.json", body)
}

// placedDefaults is the search config placed runs under without search
// flags: the settings of CI's placed smoke and of the serve benchmark's
// hot traffic.
func placedDefaults(t testing.TB) place.Config {
	t.Helper()
	fs := flag.NewFlagSet("placed", flag.ContinueOnError)
	build := place.BindFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	cfg, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestHTTPHotGolden pins the searched-tier /place answer without
// table=1, the body of every hot request, for torus(8x2) -> mesh(4x4)
// named canonically and with its guest axes reversed. The server runs
// under placed's default search flags, so CI diffs a running placed
// against the same files.
func TestHTTPHotGolden(t *testing.T) {
	cfg := testConfig()
	cfg.Place = placedDefaults(t)
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body := get(t, ts, "/place?from=torus:8x2&to=mesh:4x4&wait=1"); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	for _, tc := range []struct{ query, golden string }{
		{"from=torus:8x2&to=mesh:4x4", "placed-v1-hot.golden.json"},
		{"from=torus:2x8&to=mesh:4x4", "placed-v1-hot-relabeled.golden.json"},
	} {
		code, body := get(t, ts, "/place?"+tc.query)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.query, code, body)
		}
		checkGolden(t, tc.golden, body)
	}
}

// TestHTTPMetricsGolden pins the full Prometheus /metrics exposition
// for a known request sequence on a manual clock. The choreography —
// one parked worker, explicit clock advances between phases — makes
// every counter, histogram bucket and duration exact:
//
//	t+0s  cold A (baseline tier, search picked up immediately)
//	t+2s  A again (singleflight dedup), cold B (queued), cold C
//	      refused 429 (MaxQueue=1) with a Retry-After hint
//	t+3s  A's search finishes: search 3s, time-to-upgrade 3s
//	t+4s  B's search finishes: search 1s, time-to-upgrade 2s
//	      A served at the searched tier, then /metrics scraped
func TestHTTPMetricsGolden(t *testing.T) {
	clock := newFakeClock()
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	cfg := testConfig()
	cfg.now = clock.Now
	cfg.MaxQueue = 1
	cfg.searchFn = func(pc place.Config) (*place.Result, error) {
		started <- struct{}{}
		<-release
		return place.Search(pc)
	}
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	place_ := func(query string, want int) []byte {
		t.Helper()
		code, body := get(t, ts, "/place?"+query)
		if code != want {
			t.Fatalf("GET /place?%s = %d (%s), want %d", query, code, body, want)
		}
		return body
	}

	// t+0: cold A answers baseline; wait until the worker holds it so
	// the queue is deterministically empty.
	place_("from=torus:8x2&to=mesh:4x4", http.StatusOK)
	<-started

	clock.Advance(2 * time.Second)
	// t+2: A again joins the running search; cold B queues; cold C is
	// refused — the queue is at MaxQueue.
	place_("from=torus:8x2&to=mesh:4x4", http.StatusOK)
	place_("from=torus:4x2&to=mesh:4x2", http.StatusOK)
	resp, err := http.Get(ts.URL + "/place?from=torus:2x2x2&to=mesh:2x2x2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("cold pair against a full queue = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\" (one 2-wave queue drain)", ra)
	}

	// t+3: release A (3s search, 3s to upgrade); the worker moves on
	// to B.
	clock.Advance(time.Second)
	release <- struct{}{}
	<-started
	// t+4: release B (1s search, 2s to upgrade since its creation).
	clock.Advance(time.Second)
	release <- struct{}{}
	srv.Flush()

	// A now serves the searched tier.
	place_("from=torus:8x2&to=mesh:4x4", http.StatusOK)

	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	checkGolden(t, "placed-metrics.golden.txt", body)

	// The JSON snapshot view of the same registry must stay consistent.
	code, body = get(t, ts, "/statusz")
	if code != http.StatusOK || !strings.Contains(string(body), `"placed_requests_total"`) {
		t.Fatalf("/statusz = %d: %s", code, body)
	}
}

// TestHTTPBaselineGolden pins the baseline-tier response: the single
// search worker is parked on a decoy pair, so the requested pair's
// search is deterministically still queued when the response renders.
func TestHTTPBaselineGolden(t *testing.T) {
	release := make(chan struct{})
	cfg := testConfig()
	cfg.searchFn = func(pc place.Config) (*place.Result, error) {
		<-release
		return place.Search(pc)
	}
	srv := newTestServer(t, cfg)
	t.Cleanup(func() { close(release) }) // runs before srv.Close

	// Park the worker: the decoy is enqueued first, so the golden
	// pair's search sits behind it in the FIFO queue.
	if _, err := srv.Place(context.Background(), grid.TorusSpec(4, 2), grid.MeshSpec(4, 2), false); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, body := get(t, ts, "/place?from=torus:8x2&to=mesh:4x4&table=1")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	checkGolden(t, "placed-v1-baseline.golden.json", body)
}

// TestHTTPArtifactParity: /artifact 404s until the search lands, then
// serves the exact bytes `place -json` writes for the pair.
func TestHTTPArtifactParity(t *testing.T) {
	srv := newTestServer(t, testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := get(t, ts, "/artifact?from=torus:8x2&to=mesh:4x4"); code != http.StatusNotFound {
		t.Fatalf("cold artifact fetch returned %d, want 404", code)
	}
	if code, body := get(t, ts, "/place?from=torus:8x2&to=mesh:4x4&wait=1"); code != http.StatusOK {
		t.Fatalf("place returned %d: %s", code, body)
	}
	_, refBytes := refSearch(t, grid.TorusSpec(8, 2), grid.MeshSpec(4, 4))
	code, body := get(t, ts, "/artifact?from=torus:8x2&to=mesh:4x4")
	if code != http.StatusOK {
		t.Fatalf("artifact fetch returned %d", code)
	}
	if !bytes.Equal(body, refBytes) {
		t.Fatal("/artifact bytes differ from the batch search artifact")
	}
	// A relabeled guest shares the canonical entry.
	code, relabeled := get(t, ts, "/artifact?from=torus:2x8&to=mesh:4x4")
	if code != http.StatusOK || !bytes.Equal(relabeled, refBytes) {
		t.Fatalf("relabeled guest did not hit the canonical entry (status %d)", code)
	}
}

// TestHTTPWarmEndpoint: POST /warm accepts the census artifact in
// both encodings and pre-seeds the cache.
func TestHTTPWarmEndpoint(t *testing.T) {
	g, h := grid.TorusSpec(4, 2), grid.MeshSpec(4, 2)
	ref, refBytes := refSearch(t, g, h)
	warmCensus := &census.Census{
		Header: census.Header{
			Version:   census.ArtifactVersion,
			Size:      8,
			Shards:    1,
			Placed:    true,
			PlaceSpec: testConfig().Place.Spec(),
		},
		Results: []census.PairResult{
			{Guest: g.String(), Host: h.String(), Place: place.Summary(ref.Best)},
		},
	}

	encodings := map[string]func() []byte{
		"json": func() []byte {
			b, err := warmCensus.EncodeBytes()
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		"stream": func() []byte {
			var buf bytes.Buffer
			if err := census.WriteStream(&buf, warmCensus); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
	}
	for name, encode := range encodings {
		t.Run(name, func(t *testing.T) {
			srv := newTestServer(t, testConfig())
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			resp, err := http.Post(ts.URL+"/warm", "application/json", bytes.NewReader(encode()))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("warm returned %d: %s", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), `"queued": 1`) {
				t.Fatalf("warm response = %s, want 1 queued", body)
			}
			srv.Flush()
			code, artifact := get(t, ts, fmt.Sprintf("/artifact?from=torus:4x2&to=mesh:4x2"))
			if code != http.StatusOK || !bytes.Equal(artifact, refBytes) {
				t.Fatalf("warmed artifact differs (status %d)", code)
			}
		})
	}
}

// TestHTTPErrors maps the failure modes to their status codes.
func TestHTTPErrors(t *testing.T) {
	cfg := testConfig()
	// An always-failing baseline makes every pair unembeddable.
	broken := cfg
	broken.Place.Strategies = []place.Strategy{{
		Name:  "never",
		Embed: func(g, h grid.Spec) (*embed.Embedding, error) { return nil, fmt.Errorf("never embeds") },
	}}

	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		path string
		want int
	}{
		{"/place", http.StatusBadRequest},                            // missing params
		{"/place?from=bogus&to=mesh:4x4", http.StatusBadRequest},     // unparsable spec
		{"/place?from=torus:4x2&to=mesh:4x4", http.StatusBadRequest}, // size mismatch
		{"/artifact?from=torus:9x9&to=torus:9x9", http.StatusNotFound},
		{"/warm", http.StatusMethodNotAllowed}, // GET on a POST endpoint
	}
	for _, tc := range cases {
		if code, body := get(t, ts, tc.path); code != tc.want {
			t.Errorf("GET %s = %d (%s), want %d", tc.path, code, body, tc.want)
		}
	}
	resp, err := http.Post(ts.URL+"/place?from=torus:4x2&to=mesh:4x2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /place = %d, want 405", resp.StatusCode)
	}
	valid, err := (&census.Census{Header: census.Header{Version: census.ArtifactVersion, Size: 8, Shards: 1}}).EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{"not a census", string(valid) + "TRAILING JUNK"} {
		resp, err = http.Post(ts.URL+"/warm", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /warm %.20q... = %d, want 400", body, resp.StatusCode)
		}
	}

	bsrv := newTestServer(t, broken)
	bts := httptest.NewServer(bsrv.Handler())
	defer bts.Close()
	if code, body := get(t, bts, "/place?from=torus:4x2&to=mesh:4x2"); code != http.StatusUnprocessableEntity {
		t.Errorf("unembeddable pair = %d (%s), want 422", code, body)
	}
}

// TestHTTPRefusesOversizedPairs: specs whose node count overflows an
// int, and a valid pair above the materialization threshold, answer
// 400 before any cache entry — and so any search or table — exists.
func TestHTTPRefusesOversizedPairs(t *testing.T) {
	srv := newTestServer(t, testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, q := range []string{
		"/place?from=torus:4294967296x4294967296&to=mesh:4294967296x4294967296",
		"/place?from=torus:3037000500x3037000500&to=mesh:3037000500x3037000500",
		"/place?from=torus:4096x2048&to=mesh:2048x4096",
	} {
		if code, body := get(t, ts, q); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", q, code, body)
		}
	}
	if n := srv.misses.Value(); n != 0 {
		t.Errorf("placed_cache_misses_total = %d after refused requests, want 0", n)
	}
}
