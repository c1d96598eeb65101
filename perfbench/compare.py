#!/usr/bin/env python3
"""Compares two saved benchmark results, refusing results from different hosts.

Usage:

    python3 perfbench/compare.py BASE.json [BASE.json ...] --vs NEW.json [NEW.json ...]
    python3 perfbench/compare.py --self-test

A result file is what `run.py` saves under
`<target>/perfbench-state/results/`; with several files per side (one per
seed), each side's median is compared. Two sides are comparable only when
their host fingerprints match: core count, CPU model, AVX2 and AVX-512 flags
and last-level cache size exactly, and the measured triad bandwidth (median
per side) within 25%. A speedup is a same-host before/after, never a
comparison across hosts.

Metrics with a bound in BENCHMARK.json are checked against it; the other
figures a result carries (its "extra" object) are printed without a verdict.

Exit codes: 0 no regression, 1 a metric is worse than its bound in
BENCHMARK.json, 3 refused (fingerprints differ or the workloads differ).
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT = ("cores", "cpu_model", "avx2", "avx512", "llc_bytes")
STREAM_TOLERANCE = 0.25


def fingerprint_mismatch(a, b):
    """Reasons two fingerprints are not comparable (empty when they are)."""
    reasons = [f"{k}: {a.get(k)!r} vs {b.get(k)!r}" for k in EXACT if a.get(k) != b.get(k)]
    sa, sb = a.get("stream_gbps"), b.get("stream_gbps")
    if not sa or not sb or abs(sa - sb) > STREAM_TOLERANCE * max(sa, sb):
        reasons.append(f"stream_gbps: {sa} vs {sb} (more than {STREAM_TOLERANCE:.0%} apart)")
    return reasons


def bounds():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def compare(base, new, spec):
    """Returns (refusals, rows); each row is (metric, base, new, worse_share,
    bound, regressed)."""
    if base.get("workload") != new.get("workload") or base.get("trace") != new.get("trace"):
        return [f"different runs: {base.get('workload')}/trace {base.get('trace')} vs "
                f"{new.get('workload')}/trace {new.get('trace')}"], []
    refusals = fingerprint_mismatch(base.get("fingerprint", {}), new.get("fingerprint", {}))
    if refusals:
        return refusals, []
    rows = []
    base_all = {**base.get("extra", {}), **base["metrics"]}
    new_all = {**new.get("extra", {}), **new["metrics"]}
    for name, m in base_all.items():
        if name not in new_all:
            continue
        b, n = m["value"], new_all[name]["value"]
        rule = spec.get(name)
        if rule is None or b == 0:
            rows.append((name, b, n, None, None, False))
            continue
        worse = (n - b) / b if rule["better"] == "lower" else (b - n) / b
        rows.append((name, b, n, worse, rule["bound"], worse > rule["bound"]))
    return [], rows


def median_result(paths):
    """One result holding each metric's median (and the median triad
    bandwidth) over `paths`; refuses (returns reasons) when the files
    disagree on workload or host."""
    results = []
    for p in paths:
        with open(p) as f:
            results.append(json.load(f))
    first = results[0]
    reasons = []
    for r in results[1:]:
        if (r.get("workload"), r.get("trace")) != (first.get("workload"), first.get("trace")):
            reasons.append(f"mixed runs on one side: {first.get('workload')} and {r.get('workload')}")
        a, b = first.get("fingerprint", {}), r.get("fingerprint", {})
        reasons += [f"{k}: {a.get(k)!r} vs {b.get(k)!r}" for k in EXACT if a.get(k) != b.get(k)]
    merged = dict(first)
    merged["fingerprint"] = dict(first.get("fingerprint", {}), stream_gbps=statistics.median(
        r.get("fingerprint", {}).get("stream_gbps", 0) for r in results))
    for part in ("metrics", "extra"):
        merged[part] = {
            name: {"value": statistics.median(r[part][name]["value"] for r in results
                                              if name in r.get(part, {})), "unit": m["unit"]}
            for name, m in first.get(part, {}).items()
        }
    return merged, reasons


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if "--vs" not in argv or argv.index("--vs") in (0, len(argv) - 1):
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--vs")
    (base, r1), (new, r2) = median_result(argv[:cut]), median_result(argv[cut + 1:])
    refusals, rows = r1 + r2, []
    if not refusals:
        refusals, rows = compare(base, new, bounds())
    if refusals:
        print("refused: results are not comparable")
        for r in refusals:
            print(f"  {r}")
        return 3
    for name, b, n, worse, bound, regressed in rows:
        verdict = "" if worse is None else f"{-worse:+.1%} ({'REGRESSION' if regressed else 'ok'}, bound {bound:.0%})"
        print(f"  {name:<14} {b:>12.4f} -> {n:>12.4f}  {verdict}")
    return 1 if any(r[5] for r in rows) else 0


def self_test():
    """Shows the guard refusing a cross-host comparison and the bound check
    flagging a regression. Returns 0 when both fire."""
    fp = {"cores": 2, "cpu_model": "Example CPU", "avx2": True, "avx512": True,
          "llc_bytes": 110100480, "stream_gbps": 10.0}
    base = {"workload": "paper-mp2", "trace": 0, "fingerprint": fp,
            "metrics": {"wall_s": {"value": 10.0, "unit": "s"}}}
    spec = {"wall_s": {"name": "wall_s", "better": "lower", "bound": 0.1}}
    other_host = dict(base, fingerprint=dict(fp, cpu_model="Other CPU", cores=1))
    slower = dict(base, metrics={"wall_s": {"value": 12.0, "unit": "s"}})
    cases = [
        ("different CPU model and core count", compare(base, other_host, spec)[0] != [], True),
        ("same host, 20% slower wall_s", any(r[5] for r in compare(base, slower, spec)[1]), True),
        ("same host, same result", any(r[5] for r in compare(base, base, spec)[1]), False),
    ]
    misses = 0
    for name, fired, want in cases:
        ok = fired == want
        misses += not ok
        print(f"self-test: compare {name}: {'refused/flagged' if fired else 'accepted'} "
              f"({'as expected' if ok else 'WRONG'})")
    return int(misses != 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
