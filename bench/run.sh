#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of
# the repository, with the benchmark's own flags:
#
#   bash bench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#
# The benchmark is a module of its own (bench/go.mod) that compiles the
# repository's packages through a replace directive, so it builds only
# inside a full checkout. The binary, the Go build cache and every
# temporary file of the build and the run stay under .bench_build/ at
# the repository root.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOENV=off GOWORK=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0 \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"

go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" "$@"
