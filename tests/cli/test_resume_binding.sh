#!/usr/bin/env bash
# A checkpoint journal binds the whole campaign spec. A --resume under a
# different --sched, --telemetry or --timeseries would finish the plan
# with a second probe discipline or recording and write a CSV equal to
# neither run, so it must be refused as a different campaign and leave
# the journal untouched; a resume under the same spec must finish
# byte-identically to an uninterrupted run.
set -u

CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

fail() { echo "test_resume_binding: $1" >&2; exit 1; }

SPEC=(--scale 0.05 --traces 6 --seed 11 --workers 1)

"$CLI" campaign "${SPEC[@]}" --out "$DIR/ref.csv" 2>/dev/null || fail "reference run failed"

# The halted run: three traces journaled, then a simulated crash.
"$CLI" campaign "${SPEC[@]}" --halt-after 3 --checkpoint "$DIR/run.journal" \
  --out "$DIR/halted.csv" 2>"$DIR/halted.err" || fail "halted run failed: $(cat "$DIR/halted.err")"
[ "$(grep -c '^T ' "$DIR/run.journal")" -eq 3 ] || fail "expected 3 journaled traces"

refused() {
  local what="$1"
  shift
  cp "$DIR/run.journal" "$DIR/try.journal"
  if "$CLI" campaign "${SPEC[@]}" "$@" --resume "$DIR/try.journal" \
       --out "$DIR/try.csv" 2>"$DIR/try.err"; then
    fail "resume under another $what was accepted"
  fi
  grep -q "belongs to a different campaign" "$DIR/try.err" \
    || fail "resume under another $what: wrong refusal: $(cat "$DIR/try.err")"
  cmp -s "$DIR/try.journal" "$DIR/run.journal" \
    || fail "refused resume under another $what changed the journal"
}

refused "--sched" --sched backoff,base-ms=300,breaker-failures=2
refused "--telemetry" --telemetry sketched
refused "--timeseries" --timeseries 1000

"$CLI" campaign "${SPEC[@]}" --resume "$DIR/run.journal" --out "$DIR/run.csv" \
  2>"$DIR/run.err" || fail "same-spec resume failed: $(cat "$DIR/run.err")"
cmp -s "$DIR/run.csv" "$DIR/ref.csv" || fail "resumed CSV differs from uninterrupted run"

echo "ok: resumes under another sched, telemetry or timeseries refused; same spec resumed byte-identically"
