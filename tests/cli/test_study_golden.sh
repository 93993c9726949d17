#!/usr/bin/env bash
# ntp_pool_study's stdout must equal the committed golden byte for byte:
#   study_small.txt = ntp_pool_study 0.05
# It lives in tests/scenario/golden/. A change that moves the study's text
# on purpose regenerates it with that command. The run is one worker, so
# the campaign line names "1 worker".
set -u

STUDY="$1"
GOLDEN="$2"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

fail() { echo "test_study_golden: $1" >&2; exit 1; }

"$STUDY" 0.05 >"$DIR/study.txt" 2>/dev/null || fail "ntp_pool_study failed"
cmp "$DIR/study.txt" "$GOLDEN/study_small.txt" ||
  fail "ntp_pool_study drifted from study_small.txt"
echo "test_study_golden: ok"
