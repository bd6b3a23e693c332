#!/usr/bin/env bash
# Builds wavebench and runs it.
#
#   benchmark/run.sh [--seed N] [--quick] [--reps R] [--only W]   the whole suite -> benchmark/out/result.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (the run contract)
#   benchmark/run.sh compare A.json B.json                         verdict per workload x metric
#   benchmark/run.sh capacity                                      closed-loop capacity behind ramp_open's rate
#
# Run from the repository root. Everything written lands in benchmark/out.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Default to the repository's own target directory so dependencies built
# for the workspace are reused; a caller's CARGO_TARGET_DIR wins.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/wavebench"

case "${1:-}" in
  compare|capacity)
    command="$1"
    shift
    exec "$bin" "$command" "$@" --out "$here/out"
    ;;
esac
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$bin" run "$@" --out "$here/out"
  fi
done
exec "$bin" suite "$@" --out "$here/out"
