#!/usr/bin/env bash
# Runs one test command that selects tests by a name filter, and fails
# when the filter matched no test: a deleted or renamed test must not
# turn a CI step into a silent pass.
#
# Usage: .github/run-selected-tests.sh cargo test -p <crate> --lib <filter>
set -uo pipefail

log=$(mktemp)
trap 'rm -f "$log"' EXIT
"$@" 2>&1 | tee "$log"
status=${PIPESTATUS[0]}
if [ "$status" -ne 0 ]; then
  exit "$status"
fi
if ! grep -q 'running [1-9]' "$log"; then
  echo "error: \`$*\` ran 0 tests" >&2
  exit 1
fi
