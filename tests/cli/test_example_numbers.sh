#!/usr/bin/env bash
# Strict number arguments for the traceroute_ecn and live_probe examples:
# traceroute_ecn's target count is a whole number in [1, 2^20] and
# live_probe's HTTP port one in [1, 65535]. Anything else exits 2 with the
# usage text. live_probe checks its arguments before it opens a socket, so
# no case here sends a packet; none of them runs live_probe with valid
# arguments. Run by ctest as `example_number_args` with the two example
# binaries' paths as $1 and $2.
set -u

TRACEROUTE=${1:?usage: test_example_numbers.sh /path/to/traceroute_ecn /path/to/live_probe}
LIVE=${2:?usage: test_example_numbers.sh /path/to/traceroute_ecn /path/to/live_probe}

fails=0

# must_fail <description> <binary> <args...>: exit status 2 AND usage text
# on stderr.
must_fail() {
  local desc=$1 bin=$2
  shift 2
  local err rc
  err=$("$bin" "$@" 2>&1 >/dev/null)
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

must_fail "non-numeric target count" "$TRACEROUTE" banana
must_fail "zero targets" "$TRACEROUTE" 0
must_fail "negative target count" "$TRACEROUTE" -3
must_fail "signed target count" "$TRACEROUTE" +5
must_fail "exponent target count" "$TRACEROUTE" 1e3
must_fail "target count above 2^20" "$TRACEROUTE" 1048577
must_fail "stray second argument" "$TRACEROUTE" 4 4

must_fail "non-numeric port" "$LIVE" 127.0.0.1 banana
must_fail "port zero" "$LIVE" 127.0.0.1 0
must_fail "port above 65535" "$LIVE" 127.0.0.1 70000
must_fail "negative port" "$LIVE" 127.0.0.1 -3
must_fail "signed port" "$LIVE" 127.0.0.1 +80
must_fail "bad address" "$LIVE" 127.0.0.300
must_fail "no address" "$LIVE"
must_fail "stray third argument" "$LIVE" 127.0.0.1 80 80

if "$TRACEROUTE" 1 >/dev/null 2>&1; then
  echo "ok: one target"
else
  echo "FAIL: 'traceroute_ecn 1' exited non-zero, expected success"
  fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails example number checks failed"
  exit 1
fi
echo "all example number checks passed"
