#!/usr/bin/env python3
"""Gate a freshly generated BENCH_*.json against the committed baseline.

Usage: check_bench_json.py GENERATED BASELINE [--max-regress=0.20]

Fails (exit 1) when either file is missing or malformed, or when any
*guarded* metric present in both files moved by more than --max-regress
relative to the baseline. Guarded metrics are machine-independent by
construction (speedup ratios, deterministic event/byte counts), so a CI
runner's absolute speed never trips the gate; unguarded raw-throughput
metrics are reported but never fail the build.

A guarded metric marked "exact": true in the baseline is a deterministic
cost count (e.g. checksum words summed per rewrite, bitmap words tested
per scheduler pop): it must reproduce exactly, and any change in either
direction fails whatever --max-regress says.

The generated file may carry a subset of the baseline's metrics (CI smoke
runs small presets); only the intersection is compared. See
docs/performance.md for the schema and the baseline-update workflow.
"""

import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        sys.exit(f"FAIL: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        sys.exit(f"FAIL: {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        sys.exit(f"FAIL: {path}: expected schema 1 BENCH document")
    metrics = doc.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        sys.exit(f"FAIL: {path}: no metrics")
    out = {}
    for m in metrics:
        if not isinstance(m, dict) or "name" not in m or "value" not in m:
            sys.exit(f"FAIL: {path}: malformed metric entry {m!r}")
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            sys.exit(f"FAIL: {path}: non-numeric value in {m['name']}")
        out[m["name"]] = (float(m["value"]), bool(m.get("guarded", False)),
                          str(m.get("unit", "")), bool(m.get("exact", False)))
    return doc.get("bench", "?"), out


def main(argv):
    max_regress = 0.20
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--max-regress="):
            max_regress = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        sys.exit(f"usage: {argv[0]} GENERATED BASELINE [--max-regress=F]")

    gen_name, gen = load(paths[0])
    base_name, base = load(paths[1])
    if gen_name != base_name:
        sys.exit(f"FAIL: bench name mismatch: generated={gen_name} baseline={base_name}")

    failures = []
    compared = 0
    for name, (base_value, base_guarded, base_unit, base_exact) in sorted(base.items()):
        if name not in gen:
            continue  # smoke runs may generate a subset
        gen_value = gen[name][0]
        if not base_guarded:
            print(f"  info    {name}: {gen_value:g} (baseline {base_value:g}, unguarded)")
            continue
        compared += 1
        if base_exact:
            ok = gen_value == base_value
            print(f"  {'ok' if ok else 'REGRESS':7s} {name}: {gen_value:g} vs baseline "
                  f"{base_value:g} (exact)")
            if not ok:
                failures.append(name)
            continue
        # Deterministic counts (events, other counts, bytes, bools) must
        # hold in both directions -- any move is a behaviour change. Ratios
        # ("x") only fail when they drop: a faster machine is not a
        # regression.
        two_sided = base_unit in ("events", "count", "bytes", "bool")
        if base_value == 0.0:
            ok = gen_value == 0.0
            drift = float("inf") if not ok else 0.0
        else:
            signed = (gen_value - base_value) / abs(base_value)
            drift = abs(signed)
            ok = drift <= max_regress if two_sided else signed >= -max_regress
        status = "ok" if ok else "REGRESS"
        print(f"  {status:7s} {name}: {gen_value:g} vs baseline {base_value:g} "
              f"({drift * 100.0:.1f}% drift, limit {max_regress * 100.0:.0f}%)")
        if not ok:
            failures.append(name)

    if compared == 0:
        sys.exit(f"FAIL: no guarded metrics in common between {paths[0]} and {paths[1]}")
    if failures:
        sys.exit(f"FAIL: {gen_name}: guarded metric(s) regressed: {', '.join(failures)}")
    print(f"OK: {gen_name}: {compared} guarded metric(s) within {max_regress * 100.0:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
