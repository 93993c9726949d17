#!/usr/bin/env python3
"""Turn perfbench results into a BENCH document of deterministic counts.

Usage: perfbench_counts.py WORKLOAD=RESULT [WORKLOAD=RESULT ...] > gen-e2e.json

Each RESULT file holds the stdout of

    python3 perfbench/run.py --workload WORKLOAD --size tiny --seed 1 --trace 1 --seconds 1

whose last line is the JSON result. The traced pass's per-layer counts
(events, packets and allocations per probe or path, heap retained per
server-trace) are a pure function of the code and the seed, so they are
written as guarded metrics named "<workload>.<metric>" and gated two-sided
by check_bench_json.py against BENCH_e2e.json. A result that failed its
output checks, or lacks one of the counts, fails the conversion instead of
quietly producing a smaller document.
"""

import json
import sys

CAMPAIGN = [
    ("netsim.events_per_probe", "events"),
    ("netsim.hop_tx_per_probe", "count"),
    ("wire.vantage_pkts_per_probe", "count"),
    ("measure.allocs_per_probe", "count"),
    ("measure.retained_bytes_per_server_trace", "bytes"),
]
TRACEROUTE = [
    ("traceroute.events_per_path", "events"),
    ("traceroute.allocs_per_path", "count"),
]
COUNTS = {
    "paper_campaign": CAMPAIGN,
    "traceroute_sweep": TRACEROUTE,
    "chaos_journaled": CAMPAIGN,
}


def convert(workload, path):
    if workload not in COUNTS:
        sys.exit(f"FAIL: unknown workload {workload!r} (known: {', '.join(COUNTS)})")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
        result = json.loads(lines[-1])
    except (OSError, IndexError, json.JSONDecodeError) as exc:
        sys.exit(f"FAIL: {path}: no perfbench JSON result: {exc}")
    if result.get("correct") is not True:
        sys.exit(f"FAIL: {path}: {workload} failed its output checks")
    metrics = result.get("metrics", {})
    out = []
    for name, unit in COUNTS[workload]:
        value = metrics.get(name, {}).get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            sys.exit(f"FAIL: {path}: {workload} result has no {name}")
        out.append({"name": f"{workload}.{name}", "value": round(value, 4), "unit": unit,
                    "guarded": True})
    return out


def main(argv):
    if len(argv) < 2:
        sys.exit(f"usage: {argv[0]} WORKLOAD=RESULT [WORKLOAD=RESULT ...]")
    metrics = []
    for arg in argv[1:]:
        workload, sep, path = arg.partition("=")
        if not sep or not path:
            sys.exit(f"FAIL: expected WORKLOAD=RESULT, got {arg!r}")
        metrics += convert(workload, path)
    # The layout of the other BENCH documents: one metric per line.
    rows = ",\n".join("    " + json.dumps(m) for m in metrics)
    print('{\n  "bench": "e2e",\n  "schema": 1,\n  "metrics": [\n' + rows + "\n  ]\n}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
