#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of the checkout: everything the build leaves behind
# (Go build and module caches, scratch directory, the binary) stays
# under .bench_build/, so nothing outside the checkout is written and
# nothing but the go toolchain on PATH is needed. The module has no
# dependency outside the repository, so the proxy is never asked.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go -C benchmark build -o "$build/bsoap-benchmark" .
exec "$build/bsoap-benchmark" "$@"
