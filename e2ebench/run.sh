#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and
# runs it. Run it from the root of the repository:
#
#   bash e2ebench/run.sh --workload serve_small --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files, the binary and the per-run result
# files all stay under the build directory ($CARGO_TARGET_DIR, default
# .bench_build) so the benchmark reads and writes only inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp"

# The revision goes into every run's record. Version-control stamping by
# the Go build is off: a copy of the sources need not be a git checkout.
sha=unknown
if [ -d "$root/.git" ]; then
	sha=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	if [ -n "$(git -C "$root" status --porcelain --untracked-files=no 2>/dev/null)" ]; then
		sha=$sha-dirty
	fi
fi

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=readonly -buildvcs=false"
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --out "$out/results" --git-sha "$sha" "$@"
