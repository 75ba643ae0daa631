#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it. See README.md.
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1   one workload (what the driver calls)
#   run.sh [--seed N] [--runs K] [--quick]                    every workload, one result file
#   run.sh compare A.json B.json                              judge B against A by the bounds
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

# Quiet on success so the result stays the last thing printed; cargo's
# own diagnostics go to stderr if the build fails.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/ant-benchmark" "$@"
