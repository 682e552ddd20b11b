#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes, the Go build cache included, stays under
# .bench_build in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
go -C perfbench build -o "$build/perfbench-bin" .

# Stamp the commit only when this directory is itself a git checkout.
commit=unknown
if [ -e .git ] && rev=$(git rev-parse HEAD 2>/dev/null); then
	commit=$rev
	if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
		commit+="+dirty"
	fi
fi
# Not exec: the benchmark reads its children's peak RSS, which must not
# include the build's.
"$build/perfbench-bin" --out "$build/perfbench" --commit "$commit" "$@"
