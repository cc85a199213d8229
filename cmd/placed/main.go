// Command placed is the placement service: a long-running HTTP server
// answering "place guest G on host H" at interactive latency on top
// of the batch engines.
//
// Requests are normalized to their canonical pair (so relabelings
// that provably share a Pareto front share one cache entry), answered
// instantly from the paper-baseline construction while a background
// search upgrades the entry to the full searched front, and persisted
// as the same versioned artifacts `place -json` writes — a warm cache
// directory and a batch search's output are interchangeable.
//
// Usage:
//
//	placed -addr :8080 -cache /var/cache/placed
//	placed -addr :8080 -warm 'census-*.json'        # pre-seed from sweep output
//	placed -addr :8080 -budget 256 -anneal -seed 7  # same search knobs as place
//
//	curl 'localhost:8080/place?from=torus:8x2&to=mesh:4x4'          # instant baseline
//	curl 'localhost:8080/place?from=torus:8x2&to=mesh:4x4&wait=1'   # block for the front
//	curl 'localhost:8080/artifact?from=torus:8x2&to=mesh:4x4'       # raw place artifact
//	curl 'localhost:8080/status'
//	curl 'localhost:8080/metrics'                                   # Prometheus text
//	curl 'localhost:8080/statusz'                                   # registry as JSON
//	curl -X POST --data-binary @census.json localhost:8080/warm
//
// -max-queue bounds the background search queue: cold pairs beyond it
// answer 429 with a Retry-After hint instead of growing the queue.
// -pprof exposes /debug/pprof/ on the same listener (opt-in: it
// reveals goroutine stacks and heap contents).
//
// The search flags (-objective, -budget, -cap, -rotations, -anneal,
// -anneal-steps, -anneal-moves, -seed) are the place CLI's own, bound
// by the same place.BindFlags call, so a served front is
// byte-identical to `place -json` output for the same pair and flags.
// Settings no search accepts (a negative, NaN or infinite weight, an
// unknown move repertoire) are a startup error. A cache directory is
// bound to one search configuration; reopening it under different
// flags is a startup error.
//
// Exit codes: 0 = clean shutdown (SIGINT/SIGTERM); 2 = usage or
// startup errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"torusmesh/internal/census"
	"torusmesh/internal/obs"
	"torusmesh/internal/place"
	"torusmesh/internal/serve"
)

const exitUsage = 2

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache", "", "persistent artifact cache directory (empty = in-memory only)")
	warm := flag.String("warm", "", "glob of census artifacts (JSON or NDJSON) to pre-seed the cache from")
	warmWait := flag.Bool("warm-wait", false, "finish all warm searches before accepting requests")
	workers := flag.Int("search-workers", 1, "concurrent background searches")
	maxQueue := flag.Int("max-queue", 0, "max queued background searches before cold pairs get 429 (0 = unbounded)")
	withPprof := flag.Bool("pprof", false, "expose /debug/pprof/ on the listener")
	searchConfig := place.BindFlags(flag.CommandLine)
	flag.Parse()

	placeCfg, err := searchConfig()
	if err != nil {
		fatalf("placed: %v", err)
	}
	srv, err := serve.New(serve.Config{
		Place:         placeCfg,
		CacheDir:      *cacheDir,
		SearchWorkers: *workers,
		MaxQueue:      *maxQueue,
		Registry:      obs.Default(),
		Pprof:         *withPprof,
		Log:           log.Printf,
	})
	if err != nil {
		fatalf("placed: %v", err)
	}
	log.Printf("placed: serving %s", srv.Spec())

	if *warm != "" {
		if err := warmFromGlob(srv, *warm); err != nil {
			fatalf("placed: %v", err)
		}
		if *warmWait {
			srv.Flush()
			log.Printf("placed: warm searches finished")
		}
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("placed: listening on %s", *addr)

	select {
	case <-ctx.Done():
		log.Printf("placed: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			log.Printf("placed: shutdown: %v", err)
		}
		srv.Close()
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatalf("placed: %v", err)
		}
	}
}

// warmFromGlob pre-seeds the cache from every census artifact the
// glob matches, in either encoding (ReadFileAny sniffs).
func warmFromGlob(srv *serve.Server, pattern string) error {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("-warm %q matched no files", pattern)
	}
	for _, p := range paths {
		c, err := census.ReadFileAny(p)
		if err != nil {
			return err
		}
		ws, err := srv.WarmCensus(c)
		if err != nil {
			return err
		}
		log.Printf("placed: warmed from %s: %d queued, %d present, %d skipped",
			p, ws.Queued, ws.Present, ws.Skipped)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(exitUsage)
}
