#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark (a module of its
# own) into .bench_build/ when its sources are newer than the binary, keeps
# the Go build cache inside the checkout, and runs it with the given flags.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
bin="$out/bin/bench"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local

stale() {
	[ ! -x "$bin" ] && return 0
	[ -n "$(find "$here" "$root/internal" "$root/go.mod" -newer "$bin" \
		\( -name '*.go' -o -name '*.s' -o -name 'go.mod' \) -print -quit)" ]
}
if stale; then
	mkdir -p "$out/bin" "$out/tmp"
	(cd "$here" && go build -o "$bin" .)
fi
cd "$root"
exec "$bin" "$@"
