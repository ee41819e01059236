"""Compare two result files of bench/series.py.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

For each (metric, workload) pair present in both files it prints each
side's median and quartiles and a verdict against the metric's bound in
BENCHMARK.json: "within bound", "worse", or "unresolved" when either
side's spread (quartile distance over median) exceeds the bound, unless
every run of the change beats every run of the base.  Metrics without a
bound (per-layer) get their relative change only, and a metric whose
base median is 0 (a layer idle on that workload) gets its absolute
change, or "idle on both".  When a file holds both traced and untraced
runs of a workload, that file's tracing overhead is printed as the
difference of their round medians.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> list:
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def series(records) -> dict:
    """(workload, metric) -> list of values, in run order."""
    out = {}
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            out.setdefault((rec["workload"], name), []).append(m["value"])
    return out


def failed_share(records) -> dict:
    out = {}
    for rec in records:
        a, f = out.get(rec["workload"], (0, 0))
        out[rec["workload"]] = (a + rec["result"]["attempted"],
                                f + rec["result"]["failed"])
    return {w: f / a for w, (a, f) in out.items()}


def verdict(base, change, spec) -> str:
    lower = spec.get("better", "lower") == "lower"
    mb, mc = statistics.median(base), statistics.median(change)
    if mb == 0:
        # a layer idle on a workload reads 0 there: no relative change
        return "idle on both" if mc == 0 else f"change {mc - mb:+.4g} from 0"
    worse_by = (mc - mb) / mb if lower else (mb - mc) / mb
    bound = spec.get("bound")
    if bound is None:
        return f"change {-worse_by:+.1%} (no bound)"
    beats = (max(change) < min(base)) if lower else (min(change) > max(base))
    if max(spread(base), spread(change)) > bound:
        return "better on every run" if beats else "unresolved"
    if worse_by > bound:
        return f"worse by {worse_by:.1%}"
    return f"within bound ({-worse_by:+.1%})"


def tracing_overhead(records) -> list:
    """Traced against untraced round medians, per workload of one file."""
    lines = []
    by = series(records)
    for (workload, name), traced in sorted(by.items()):
        plain = by.get((workload, "round_p50_cal"))
        if name == "trace.round_p50_cal" and plain:
            mt, mp = statistics.median(traced), statistics.median(plain)
            lines.append(f"{workload}: traced round {mt:.4g} cal vs {mp:.4g} cal "
                         f"untraced, tracing overhead {(mt - mp) / mp:+.1%}")
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    specs = metric_specs()
    a, b = series(base), series(change)
    print(f"{'workload':<20} {'metric':<36} {'base q1/med/q3':>32} "
          f"{'change q1/med/q3':>32}  verdict")
    for key in sorted(set(a) & set(b)):
        qa = "/".join(f"{v:.4g}" for v in quartiles(a[key]))
        qb = "/".join(f"{v:.4g}" for v in quartiles(b[key]))
        print(f"{key[0]:<20} {key[1]:<36} {qa:>32} {qb:>32}  "
              f"{verdict(a[key], b[key], specs.get(key[1], {}))}")
    fa, fb = failed_share(base), failed_share(change)
    for w in sorted(set(fa) & set(fb)):
        print(f"{w}: failed share {fa[w]:.6f} vs {fb[w]:.6f}"
              + ("" if fa[w] == fb[w] else "  DIFFERENT"))
    for label, records in (("base", base), ("change", change)):
        for line in tracing_overhead(records):
            print(f"{label} {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
