#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, e.g. from the repository root:
#
#   bash e2ebench/run.sh --workload dpsgd-256 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build at the repository root): the Go
# build cache, the binary, scratch sweep stores and the result files. The
# build is incremental, so only the first run in a checkout compiles.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-$here/../.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOTMPDIR="$build/go-tmp"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$HOME/.config"
export XDG_CACHE_HOME="$HOME/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOCACHE" "$GOPATH" "$GOTMPDIR" "$TMPDIR" "$XDG_CONFIG_HOME" "$XDG_CACHE_HOME" "$build/e2ebench"

# The benchmark module imports the repository's packages through a
# replace of its parent directory; without the repository around it the
# build fails and so does the run.
(cd "$here" && go build -o "$build/e2ebench/e2ebench" .) >&2
exec "$build/e2ebench/e2ebench" --out "$build/e2ebench" "$@"
