#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it:
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
#   benchmark/run.sh compare A.json B.json
#
# The build goes to $CARGO_TARGET_DIR, or to the root target/ directory.
# The engine's per-cell progress lines go to benchmark/out/stderr.log, so
# terminal speed never enters a wall time; the log's tail is shown when
# the benchmark fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

mkdir -p "$here/out"
status=0
"$target/release/stabl-benchmark" "$@" 2>"$here/out/stderr.log" || status=$?
if [ "$status" -ne 0 ]; then
    tail -n 20 "$here/out/stderr.log" >&2
fi
exit "$status"
