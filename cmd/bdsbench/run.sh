#!/bin/sh
# Builds bdsbench from source and runs it with the given arguments. Run it
# from the repository root, for example:
#
#	bash cmd/bdsbench/run.sh --workload cone10k --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the go command's temporary files
# and configuration, and the bdsbench binary. The build needs the repository
# module at ../.. of this directory (see go.mod); without it the script
# fails before the benchmark prints anything.
set -eu

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

go -C cmd/bdsbench build -o "$build/bdsbench" .
exec "$build/bdsbench" "$@"
