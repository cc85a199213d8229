package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"torusmesh/internal/catalog"
	"torusmesh/internal/census"
	"torusmesh/internal/grid"
	"torusmesh/internal/place"
	"torusmesh/internal/testmem"
)

// oracleBody is the /place body of one answer as a whole Response
// encoded by json.Encoder with a two-space indent: the schema clients
// decode into, and the bytes every served body must equal.
func oracleBody(t testing.TB, srv *Server, g, h grid.Spec, a *Answer, table bool) []byte {
	t.Helper()
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
	if table {
		tab, err := srv.Table(a)
		if err != nil {
			t.Fatal(err)
		}
		resp.Placement = tab
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// specParam renders a spec in the kind:shape form /place accepts.
func specParam(sp grid.Spec) string { return sp.Kind.String() + ":" + sp.Shape.String() }

// placeTarget is the /place request for a pair.
func placeTarget(g, h grid.Spec, table bool) string {
	q := url.Values{"from": {specParam(g)}, "to": {specParam(h)}}
	if table {
		q.Set("table", "1")
	}
	return "/place?" + q.Encode()
}

// serveGet sends one GET through the handler in process.
func serveGet(hd http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	hd.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

// checkBodyOracle sends the pair's /place request and compares the
// answer with the oracle: a 200 body must equal oracleBody of the
// answer Place gives for the same request, and any other status must
// be the one Place's error maps to. It returns the answer's tier, or
// "" for an error.
func checkBodyOracle(t *testing.T, srv *Server, hd http.Handler, g, h grid.Spec, table bool) Tier {
	t.Helper()
	target := placeTarget(g, h, table)
	rec := serveGet(hd, target)
	a, err := srv.Place(context.Background(), g, h, false)
	if err != nil {
		if code := errorCode(err); rec.Code != code {
			t.Errorf("%s: status %d, want %d (%v)", target, rec.Code, code, err)
		}
		return ""
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body)
	}
	if want := oracleBody(t, srv, g, h, a, table); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("%s: served body differs from the encoded Response\ngot:\n%s\nwant:\n%s", target, rec.Body, want)
	}
	return a.Tier
}

// sizeSpecs lists every torus and mesh of a size, in every axis order.
func sizeSpecs(n, maxDim int) []grid.Spec {
	var out []grid.Spec
	for _, s := range catalog.ShapesOfSize(n, maxDim) {
		out = append(out, grid.Spec{Kind: grid.Mesh, Shape: s}, grid.Spec{Kind: grid.Torus, Shape: s})
	}
	return out
}

// parkWorker starts a server whose one search worker searches the
// given pairs and then parks on a decoy pair whose search blocks until
// the test ends, so every pair requested afterwards stays queued and
// answers at the baseline tier. Once the test ends the worker may still
// take queued pairs before Close stops it; only the decoy's start is
// awaited, so those searches must not block on the signal.
func parkWorker(t testing.TB, cfg Config, searched ...[2]grid.Spec) *Server {
	t.Helper()
	var park atomic.Bool
	started := make(chan struct{}, 1)
	hold := make(chan struct{})
	cfg.searchFn = func(pc place.Config) (*place.Result, error) {
		if !park.Load() {
			return place.Search(pc)
		}
		select {
		case started <- struct{}{}:
		default:
		}
		<-hold
		return nil, ErrClosed
	}
	srv := newTestServer(t, cfg)
	t.Cleanup(func() { close(hold) }) // runs before srv.Close
	for _, p := range searched {
		if _, err := srv.Place(context.Background(), p[0], p[1], true); err != nil {
			t.Fatal(err)
		}
	}
	park.Store(true)
	if _, err := srv.Place(context.Background(), grid.TorusSpec(2, 2, 2, 2, 2), grid.MeshSpec(4, 8), false); err != nil {
		t.Fatal(err)
	}
	<-started
	return srv
}

// TestPlaceBodyOracle: over every ordered pair of size 12 (every guest
// axis order of every canonical pair) and of size 8 (where the
// hypercube's torus and mesh share an entry), with and without table=1,
// the served /place body equals the encoded Response of its answer, on
// the searched tier, on the baseline tier of a queued search and on the
// baseline tier of a failed one; pairs of different sizes are refused
// with Place's status.
func TestPlaceBodyOracle(t *testing.T) {
	specs := append(sizeSpecs(12, 3), sizeSpecs(8, 3)...)
	failing := testConfig()
	failing.searchFn = func(place.Config) (*place.Result, error) {
		return nil, errors.New(`search refused: <"budget" & 'cap'>`)
	}
	servers := []struct {
		name string
		srv  *Server
		wait bool
	}{
		{"searched", newTestServer(t, testConfig()), true},
		{"queued", parkWorker(t, testConfig()), false},
		{"failed", newTestServer(t, failing), true},
	}
	for _, tc := range servers {
		t.Run(tc.name, func(t *testing.T) {
			hd := tc.srv.Handler()
			if tc.wait {
				for _, g := range specs {
					for _, h := range specs {
						tc.srv.Place(context.Background(), g, h, true)
					}
				}
			}
			tiers := map[Tier]int{}
			for _, g := range specs {
				for _, h := range specs {
					for _, table := range []bool{false, true} {
						tiers[checkBodyOracle(t, tc.srv, hd, g, h, table)]++
					}
				}
			}
			t.Logf("answers by tier (\"\" = refused): %v", tiers)
		})
	}
}

// TestPlaceBodyFromDecodedResult: an entry restored from the cache
// directory answers from its decoded result, not from the file's bytes,
// so an artifact formatted by hand (here compacted) still yields the
// body a searched entry serves, while /artifact serves the file as is.
func TestPlaceBodyFromDecodedResult(t *testing.T) {
	g, h := grid.TorusSpec(8, 2), grid.MeshSpec(4, 4)
	dir := t.TempDir()
	cfg := testConfig()
	cfg.CacheDir = dir
	srv := newTestServer(t, cfg)
	if _, err := srv.Place(context.Background(), g, h, true); err != nil {
		t.Fatal(err)
	}
	want := serveGet(srv.Handler(), placeTarget(g, h, false)).Body.Bytes()
	srv.Close()

	key, err := catalog.CanonicalPair(g, h)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileName(key.String()))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, compact.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	restored := newTestServer(t, cfg)
	if st := restored.Status(); st.CacheLoaded != 1 {
		t.Fatalf("restart status = %+v, want cache_loaded 1", st)
	}
	hd := restored.Handler()
	if got := serveGet(hd, placeTarget(g, h, false)).Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("restored entry served\n%s\nwant\n%s", got, want)
	}
	if got := serveGet(hd, "/artifact?from=torus:8x2&to=mesh:4x4").Body.Bytes(); !bytes.Equal(got, compact.Bytes()) {
		t.Fatalf("/artifact served\n%s\nwant the file's bytes\n%s", got, compact.Bytes())
	}
	checkBodyOracle(t, restored, hd, grid.TorusSpec(2, 8), h, false)
}

// TestPlaceBodyConcurrent: concurrent first answers of a freshly
// searched entry, named canonically and relabeled, share its one member
// encoding and each get the oracle's bytes.
func TestPlaceBodyConcurrent(t *testing.T) {
	srv := newTestServer(t, testConfig())
	g, h := grid.TorusSpec(4, 3, 2), grid.MeshSpec(6, 4)
	if _, err := srv.Place(context.Background(), g, h, true); err != nil {
		t.Fatal(err)
	}
	hd := srv.Handler()
	guests := []grid.Spec{g, grid.TorusSpec(2, 3, 4), grid.TorusSpec(3, 2, 4)}
	bodies := make([][]byte, 16)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i] = serveGet(hd, placeTarget(guests[i%len(guests)], h, false)).Body.Bytes()
		}()
	}
	wg.Wait()
	for i, body := range bodies {
		guest := guests[i%len(guests)]
		a, err := srv.Place(context.Background(), guest, h, false)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleBody(t, srv, guest, h, a, false); !bytes.Equal(body, want) {
			t.Fatalf("request %d (%s): served\n%s\nwant\n%s", i, guest, body, want)
		}
	}
}

// TestMembersBuiltOnDemand: a searched entry encodes its members on its
// first searched-tier answer; entries a census warm seeded, which no
// request has asked for, hold none.
func TestMembersBuiltOnDemand(t *testing.T) {
	srv := newTestServer(t, testConfig())
	pairs := [][2]grid.Spec{
		{grid.TorusSpec(4, 2), grid.MeshSpec(4, 2)},
		{grid.MeshSpec(4, 2), grid.RingSpec(8)},
	}
	c := &census.Census{Header: census.Header{Version: census.ArtifactVersion, Size: 8, Shards: 1, Placed: true}}
	for _, p := range pairs {
		c.Results = append(c.Results, census.PairResult{Guest: p[0].String(), Host: p[1].String(), Place: &census.PlaceSummary{}})
	}
	if ws, err := srv.WarmCensus(c); err != nil || ws.Queued != len(pairs) {
		t.Fatalf("warm = %+v, %v; want %d queued", ws, err, len(pairs))
	}
	srv.Flush()
	built := func() (n int) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, e := range srv.entries {
			if e.members != nil {
				n++
			}
		}
		return n
	}
	if n := built(); n != 0 {
		t.Fatalf("%d warmed entries built members before any request", n)
	}
	if rec := serveGet(srv.Handler(), placeTarget(pairs[0][0], pairs[0][1], false)); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if n := built(); n != 1 {
		t.Fatalf("%d entries built members after one request, want 1", n)
	}
}

// TestPlaceHotAllocs gates the allocations of one hot /place request:
// Handler().ServeHTTP into a fresh httptest recorder, on a searched
// pair under placed's default search flags, named canonically and with
// its guest axes reversed. The searched entry's members are encoded on
// its first answer, which the gate does not charge. Measured at 36 and
// 40 allocs/op (5.6 KB) with Go 1.24 on linux/amd64, where the whole
// Response encoded per request took 70 (10.6 KB); the limits leave a
// little room above that. Skipped under -race, where sync.Pool (fmt's
// printers) drops items.
func TestPlaceHotAllocs(t *testing.T) {
	if testmem.RaceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	cfg := testConfig()
	cfg.Place = placedDefaults(t)
	srv := newTestServer(t, cfg)
	if _, err := srv.Place(context.Background(), grid.TorusSpec(8, 2), grid.MeshSpec(4, 4), true); err != nil {
		t.Fatal(err)
	}
	hd := srv.Handler()
	for _, tc := range []struct {
		name, target string
		limit        float64
	}{
		{"canonical", "/place?from=torus:8x2&to=mesh:4x4", 40},
		{"relabeled", "/place?from=torus:2x8&to=mesh:4x4", 44},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.target, nil)
		serve := func() {
			rec := httptest.NewRecorder()
			hd.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.target, rec.Code, rec.Body)
			}
		}
		allocs := testing.AllocsPerRun(200, serve)
		bytes := testmem.BytesPerCall(200, serve)
		t.Logf("%s: %.0f allocs/op, %d B/op (limit %.0f allocs/op)", tc.name, allocs, bytes, tc.limit)
		if allocs > tc.limit {
			t.Errorf("%s: a hot /place request allocates %.0f objects, want <= %.0f", tc.name, allocs, tc.limit)
		}
	}
}

// FuzzPlaceQuery sends arbitrary from, to, wait and table values to
// /place on a server that has searched a few pairs and parked its one
// search worker, so every other pair answers at the baseline tier. No
// answer may be a 5xx, every other non-200 body must be the JSON error
// object, and every 200 body must equal the oracle encoding. Pairs
// above 4,096 nodes are skipped, so the fuzzer cannot demand huge
// baselines, and so is wait on a pair that is not searched, which would
// block on the parked worker.
func FuzzPlaceQuery(f *testing.F) {
	searched := [][2]grid.Spec{
		{grid.TorusSpec(8, 2), grid.MeshSpec(4, 4)},
		{grid.TorusSpec(4, 3), grid.TorusSpec(6, 2)},
		{grid.MeshSpec(2, 2, 2), grid.TorusSpec(4, 2)},
	}
	srv := parkWorker(f, testConfig(), searched...)
	hd := srv.Handler()
	done := map[string]bool{}
	for _, p := range searched {
		key, err := catalog.CanonicalPair(p[0], p[1])
		if err != nil {
			f.Fatal(err)
		}
		done[key.String()] = true
	}
	f.Add("torus:8x2", "mesh:4x4", "", "")
	f.Add("torus:2x8", "mesh:4x4", "1", "1")
	f.Add("torus:3x4", "torus:6x2", "true", "")
	f.Add("torus:2x2x2", "mesh:4x2", "0", "true")
	f.Add("mesh:3x4", "mesh:2x6", "", "1")
	f.Add("ring:12", "mesh:4x3", "", "")
	f.Add("torus:4x2", "mesh:4x4", "", "")
	f.Add("bogus", "mesh:4x4", "1", "1")
	f.Add("torus:4096x2048", "mesh:2048x4096", "", "")
	f.Fuzz(func(t *testing.T, from, to, wait, table string) {
		waits := wait == "1" || wait == "true"
		g, gerr := grid.ParseSpec(from)
		h, herr := grid.ParseSpec(to)
		if gerr == nil && g.Size() > 4096 {
			t.Skip("pair above 4,096 nodes")
		}
		if gerr == nil && herr == nil && waits {
			if key, err := catalog.CanonicalPair(g, h); err == nil && !done[key.String()] {
				t.Skip("wait on a queued search")
			}
		}
		q := url.Values{"from": {from}, "to": {to}, "wait": {wait}, "table": {table}}
		rec := serveGet(hd, "/place?"+q.Encode())
		if rec.Code >= 500 {
			t.Fatalf("%s: status %d: %s", q.Encode(), rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			dec := json.NewDecoder(rec.Body)
			dec.DisallowUnknownFields()
			var e errorResponse
			if err := dec.Decode(&e); err != nil || e.Error == "" || dec.More() {
				t.Fatalf("%s: status %d body is not the JSON error object: %q", q.Encode(), rec.Code, rec.Body)
			}
			return
		}
		a, err := srv.Place(context.Background(), g, h, waits)
		if err != nil {
			t.Fatalf("%s: served 200, but Place fails: %v", q.Encode(), err)
		}
		if want := oracleBody(t, srv, g, h, a, table == "1" || table == "true"); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: served body differs from the encoded Response\ngot:\n%s\nwant:\n%s", q.Encode(), rec.Body, want)
		}
	})
}
