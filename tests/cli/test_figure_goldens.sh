#!/usr/bin/env bash
# The figure text must equal the committed goldens byte for byte:
#   report_small.md     = ecnprobe report --scale 0.05 --seed 42
#   analyze_default.txt = ecnprobe analyze campaign_default.csv
# Both live in tests/scenario/golden/. A change that moves a figure on
# purpose regenerates them with these two commands.
set -u

CLI="$1"
GOLDEN="$2"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

fail() { echo "test_figure_goldens: $1" >&2; exit 1; }

"$CLI" report --scale 0.05 --seed 42 >"$DIR/report.md" 2>/dev/null || fail "report failed"
cmp "$DIR/report.md" "$GOLDEN/report_small.md" ||
  fail "report drifted from report_small.md"

"$CLI" analyze "$GOLDEN/campaign_default.csv" >"$DIR/analyze.txt" || fail "analyze failed"
cmp "$DIR/analyze.txt" "$GOLDEN/analyze_default.txt" ||
  fail "analyze drifted from analyze_default.txt"
echo "test_figure_goldens: ok"
