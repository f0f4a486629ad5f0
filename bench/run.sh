#!/usr/bin/env bash
# Builds tlcserve and the benchmark driver from the checkout this script
# sits in, then runs the driver with the arguments given. Everything the
# build and the run write — Go's build cache included — stays under
# .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath" \
  XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
# bench/ is a module of its own, so the root module's `go vet ./...` and
# `go test ./...` never see it: every run vets it and runs its unit tests
# (both are cached after the first time in a checkout) before it measures.
go vet -C "$here" . >&2
go test -C "$here" . >&2
go build -C "$root" -o "$build/tlcserve" ./cmd/tlcserve
go build -C "$here" -o "$build/tlcbench-driver" .
exec "$build/tlcbench-driver" -tlcserve "$build/tlcserve" -work "$build/work" -out "$here/out" "$@"
