#!/usr/bin/env bash
# Strict CLI argument parsing: every malformed invocation must exit
# non-zero and print a usage message; well-formed fault/checkpoint flags
# must be accepted. Run by ctest as `cli_strict_args` with the ecnprobe
# binary path as $1.
set -u

BIN=${1:?usage: test_cli_args.sh /path/to/ecnprobe}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fails=0

# must_fail <description> <args...>: non-zero exit AND usage text on stderr.
must_fail() {
  local desc=$1
  shift
  local err
  err=$("$BIN" "$@" 2>&1 >/dev/null)
  local rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "FAIL: '$desc' ($*) exited 0, expected non-zero"
    fails=$((fails + 1))
  elif ! printf '%s' "$err" | grep -q "usage:"; then
    echo "FAIL: '$desc' ($*) printed no usage message; stderr was: $err"
    fails=$((fails + 1))
  else
    echo "ok: $desc"
  fi
}

# must_pass <description> <args...>: zero exit.
must_pass() {
  local desc=$1
  shift
  if ! "$BIN" "$@" >/dev/null 2>&1; then
    echo "FAIL: '$desc' ($*) exited non-zero, expected success"
    fails=$((fails + 1))
  else
    echo "ok: $desc"
  fi
}

must_fail "no command"
must_fail "unknown command" frobnicate
must_fail "unknown flag" campaign --frobnicate
must_fail "unknown flag with value" campaign --frobnicate=3
must_fail "missing value" campaign --traces
must_fail "non-numeric workers" campaign --workers banana
must_fail "non-numeric traces" campaign --traces 1.5
must_fail "negative traces" campaign --traces -3
must_fail "zero workers" campaign --workers 0
must_fail "zero scale" campaign --scale 0
must_fail "negative seed" campaign --seed -1
must_fail "trailing garbage in int" campaign --traces 3x
must_fail "unexpected positional" analyze a.csv b.csv

# Probe supervision rides in one --sched spec, parsed by the same
# SupervisorConfig::parse as ntp_pool_study's --sched and an ecnprobed
# spec's "sched" key: out-of-range and cross-field values die at argument
# parsing with a usage message.
must_fail "unknown retry policy" campaign --sched sometimes
must_fail "non-numeric retry max" campaign --sched backoff,max-attempts=banana
must_fail "zero retry max" campaign --sched backoff,max-attempts=0
must_fail "zero retry base" campaign --sched backoff,base-ms=0
must_fail "negative retry base" campaign --sched backoff,base-ms=-100
must_fail "retry factor below one" campaign --sched backoff,factor=0.5
must_fail "retry jitter at one" campaign --sched backoff,jitter=1.0
must_fail "negative retry jitter" campaign --sched backoff,jitter=-0.1
must_fail "negative retry budget" campaign --sched backoff,budget-ms=-1
must_fail "negative hedge delay" campaign --sched backoff,hedge-ms=-5
must_fail "hedge without backoff" campaign --sched paper,hedge-ms=100
must_fail "zero pace rate" campaign --sched paper,pace-rate=0
must_fail "non-numeric pace rate" campaign --sched paper,pace-rate=fast
must_fail "zero pace burst" campaign --sched paper,pace-burst=0
must_fail "pace burst without a rate" campaign --sched paper,pace-burst=2
must_fail "pace gap without a rate" campaign --sched paper,pace-dest-gap-ms=500
must_fail "negative pace gap" campaign --sched paper,pace-dest-gap-ms=-2
must_fail "zero breaker failures" campaign --sched paper,breaker-failures=0
must_fail "zero breaker half-open" campaign --sched paper,breaker-half-open=0
must_fail "zero watchdog deadline" campaign --sched paper,watchdog-ms=0
must_fail "missing supervision value" campaign --sched
must_fail "retired supervision flag" campaign --retry-policy backoff

# One range per campaign key, the same in every front end.
must_fail "scale above one" campaign --scale 4
must_fail "workers above 256" campaign --workers 1000
must_fail "traces above 2^20" campaign --traces 2000000
must_fail "repeated campaign key" campaign --scale 0.02 --scale 0.05

# Commands refuse the flags they do not read instead of ignoring them.
must_fail "report ignores faults" report --scale 0.02 --faults wan-chaos
must_fail "report ignores workers" report --scale 0.02 --workers 4
must_fail "report ignores traces" report --scale 0.02 --traces 3
must_fail "report ignores telemetry" report --scale 0.02 --telemetry sketched
must_fail "discover ignores faults" discover --scale 0.02 --faults blackhole-heavy
must_fail "discover ignores retry policy" discover --scale 0.02 --retry-policy backoff
must_fail "traceroute ignores workers" traceroute --scale 0.02 --count 1 --workers 2
must_fail "pcap ignores traces" pcap --scale 0.02 --traces 1 --out "$TMP/p.pcap"
must_fail "trace-autopsy ignores workers" trace-autopsy --scale 0.02 --trace 0 --workers 2
must_fail "trace-autopsy server not an address" trace-autopsy --scale 0.02 --trace 1 \
  --server banana
must_fail "trace-autopsy server out of range" trace-autopsy --scale 0.02 --trace 1 \
  --server 10.0.0.256

# Live-plane flags: the port must be a bare integer in [0, 65535].
must_fail "non-numeric serve-obs port" campaign --serve-obs banana
must_fail "out-of-range serve-obs port" campaign --serve-obs 70000
must_fail "negative serve-obs port" campaign --serve-obs -1
must_fail "missing serve-obs value" campaign --serve-obs

# Sub-spec errors are campaign-key errors: refused at argument parsing,
# with the usage message, like every other bad key.
must_fail "unknown fault profile" campaign --scale 0.02 --traces 1 --faults lolwut
must_fail "bad fault override" campaign --scale 0.02 --traces 1 \
  --faults none,corrupt-prob=x
must_fail "bad telemetry spec" campaign --scale 0.02 --traces 1 --telemetry nope
must_fail "bad timeseries spec" campaign --scale 0.02 --traces 1 \
  --timeseries banana
must_fail "zero timeseries window" campaign --scale 0.02 --traces 1 \
  --timeseries window-ms=0

# Errors detected past argument parsing report their own message (no usage
# text): resuming a journal that does not exist.
must_fail_plain() {
  local desc=$1
  shift
  if "$BIN" "$@" >/dev/null 2>&1; then
    echo "FAIL: '$desc' ($*) exited 0, expected non-zero"
    fails=$((fails + 1))
  else
    echo "ok: $desc"
  fi
}

must_fail_plain "--resume missing journal" campaign --scale 0.02 --traces 1 \
  --resume "$TMP/absent.journal"

# analyze refuses a traces CSV whose cells are not what the campaign
# writes, instead of reading "banana" as 0 and "yes" as unreachable, and
# one without the header, instead of skipping its first row as one.
header=vantage,batch,trace,server,udp_plain,udp_plain_tries,udp_ect0,udp_ect0_tries,tcp_conn
header=$header,tcp_resp,tcp_status,tcpecn_conn,tcpecn_negotiated,tcpecn_resp,tcpecn_status
printf '%s\nv,banana,0,11.0.0.1,1,1,1,1,1,1,302,1,1,1,302\n' "$header" > "$TMP/bad_batch.csv"
printf '%s\nv,1,0,11.0.0.1,yes,1,1,1,1,1,302,1,1,1,302\n' "$header" > "$TMP/bad_flag.csv"
printf 'v,1,0,11.0.0.1,1,1,1,1,1,1,302,1,1,1,302\nv,1,0,11.0.0.2,1,1,1,1,1,1,302,1,1,1,302\n' \
  > "$TMP/headerless.csv"
must_fail_plain "analyze refuses a non-numeric batch" analyze "$TMP/bad_batch.csv"
must_fail_plain "analyze refuses a flag other than 0/1" analyze "$TMP/bad_flag.csv"
must_fail_plain "analyze refuses a CSV without its header" analyze "$TMP/headerless.csv"

must_pass "plain campaign" campaign --scale 0.02 --traces 1 --out "$TMP/t.csv"
must_fail "analyze ignores scale" analyze --scale 0.02 "$TMP/t.csv"
must_fail "analyze ignores workers" analyze --workers 2 "$TMP/t.csv"
must_pass "faulted campaign with checkpoint" campaign --scale 0.02 --traces 2 \
  --faults none,poison=1 --checkpoint "$TMP/run.journal" --out "$TMP/t2.csv"
must_pass "resume of that checkpoint" campaign --scale 0.02 --traces 2 \
  --faults none,poison=1 --resume "$TMP/run.journal" --out "$TMP/t3.csv"
must_pass "timeseries campaign" campaign --scale 0.02 --traces 1 \
  --timeseries 250 --out "$TMP/t5.csv"

# --metrics-out - streams the metrics JSON to stdout (and only the JSON:
# progress chatter stays on stderr), so it must parse as a JSON object.
out=$("$BIN" campaign --scale 0.02 --traces 1 --timeseries 250 \
  --out "$TMP/t6.csv" --metrics-out - 2>/dev/null)
case $out in
  '{'*'}')
    if printf '%s' "$out" | grep -q '"timeseries"'; then
      echo "ok: --metrics-out - streams JSON with timeseries to stdout"
    else
      echo "FAIL: --metrics-out - JSON lacks timeseries section: $out"
      fails=$((fails + 1))
    fi
    ;;
  *)
    echo "FAIL: --metrics-out - did not print a JSON object on stdout: $out"
    fails=$((fails + 1))
    ;;
esac

# An --out file that cannot be written fails the command: exit 1 with
# "cannot write PATH", never "wrote PATH". A missing directory fails at
# open; /dev/full accepts the open and fails when the buffered bytes flush.
must_fail_write() {
  local desc=$1 path=$2
  shift 2
  local err rc
  err=$("$BIN" "$@" 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL: '$desc' ($*) exited $rc, expected 1"
    fails=$((fails + 1))
  elif ! printf '%s' "$err" | grep -qF "cannot write $path"; then
    echo "FAIL: '$desc' ($*) did not report 'cannot write $path'; stderr was: $err"
    fails=$((fails + 1))
  elif printf '%s' "$err" | grep -qF "wrote $path"; then
    echo "FAIL: '$desc' ($*) claimed to have written $path"
    fails=$((fails + 1))
  else
    echo "ok: $desc"
  fi
}

must_fail_write "campaign --out in a missing directory" "$TMP/missing/t.csv" \
  campaign --scale 0.02 --traces 1 --out "$TMP/missing/t.csv"
must_fail_write "report --out in a missing directory" "$TMP/missing/r.md" \
  report --scale 0.02 --out "$TMP/missing/r.md"
if [ -w /dev/full ]; then
  must_fail_write "campaign --out /dev/full" /dev/full \
    campaign --scale 0.02 --traces 1 --out /dev/full
  must_fail_write "report --out /dev/full" /dev/full \
    report --scale 0.02 --out /dev/full
  must_fail_write "pcap --out /dev/full" /dev/full pcap --scale 0.02 --out /dev/full
fi

must_pass "fully supervised campaign" campaign --scale 0.02 --traces 1 \
  --sched backoff,max-attempts=4,base-ms=500,factor=2,jitter=0.2,budget-ms=8000,hedge-ms=250,breaker-failures=2,breaker-half-open=3,pace-rate=200,pace-burst=2,pace-dest-gap-ms=5,watchdog-ms=20000 \
  --out "$TMP/t4.csv"
must_pass "flag=value spelling" campaign --scale=0.02 --traces=1 --sched=paper \
  --out="$TMP/t7.csv"

if [ "$fails" -ne 0 ]; then
  echo "$fails CLI argument checks failed"
  exit 1
fi
echo "all CLI argument checks passed"
