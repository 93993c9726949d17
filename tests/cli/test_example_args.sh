#!/usr/bin/env bash
# Strict argument parsing for the ntp_pool_study example. Its campaign keys
# go through the same scenario::CampaignSpec::from_args as `ecnprobe
# campaign`, so a malformed value, a misspelt flag or a stray word exits 2
# with the usage text instead of running some other campaign. Run by ctest
# as `example_strict_args` with the example binary's path as $1.
set -u

BIN=${1:?usage: test_example_args.sh /path/to/ntp_pool_study}

fails=0

# must_fail <description> <args...>: exit status 2 AND usage text on stderr.
must_fail() {
  local desc=$1
  shift
  local err rc
  err=$("$BIN" "$@" 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: '$desc' ($*) exited $rc, expected 2"
    fails=$((fails + 1))
  elif ! printf '%s' "$err" | grep -q "usage:"; then
    echo "FAIL: '$desc' ($*) printed no usage message; stderr was: $err"
    fails=$((fails + 1))
  else
    echo "ok: $desc"
  fi
}

must_fail "non-numeric workers" --workers banana
must_fail "non-numeric workers, joined spelling" --workers=banana
must_fail "misspelt flag" --wokers 4
must_fail "unknown sched policy" --sched warp-speed
must_fail "non-numeric positional scale" banana
must_fail "scale above one" 4
must_fail "scale given twice" 0.02 --scale 0.05
must_fail "missing value" --traces
must_fail "negative halt-after" --halt-after -1
must_fail "out-of-range serve-obs port" --serve-obs 70000

if "$BIN" 0.02 --traces 1 >/dev/null 2>&1; then
  echo "ok: small valid study"
else
  echo "FAIL: '0.02 --traces 1' exited non-zero, expected success"
  fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails example argument checks failed"
  exit 1
fi
echo "all example argument checks passed"
