"""Run the benchmark once per seed and append the results to a file.

    python3 bench/series.py --seeds 1-10 --out .bench_results/a.jsonl
    python3 bench/series.py --workloads analysis_report --seeds 1-5 --trace 1 \
        --out .bench_results/traced.jsonl

Each line of the output file is {"workload", "seed", "trace", "result"},
with "result" the last line the benchmark printed.  At the end it prints
each metric's median and its spread (quartile distance over median) per
workload, against a third of the metric's bound.  Read two such files
with bench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import compare

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    records = []
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            rec = {"workload": workload, "seed": seed, "trace": args.trace,
                   "result": json.loads(lines[-1])}
            for line in lines:
                for key in ("setup_probes_s", "round_p50_s", "round_s", "calibration_s",
                            "kind_p50_s"):
                    if line.startswith(f"# {key}: "):
                        rec[key] = json.loads(line.split(": ", 1)[1])
            records.append(rec)
            with open(out, "a") as fh:
                fh.write(json.dumps(rec) + "\n")
            print(f"{workload} seed {seed}: correct={rec['result']['correct']} "
                  f"failed={rec['result']['failed']}/{rec['result']['attempted']}",
                  flush=True)
    specs = compare.metric_specs()
    for (workload, name), values in sorted(compare.series(records).items()):
        bound = specs.get(name, {}).get("bound")
        if not any(values):
            print(f"{workload:<20} {name:<36} 0 on every run (layer idle)")
            continue
        s = compare.spread(values)
        flag = "" if bound is None else ("  ok" if s < bound / 3 else
                                         "  WIDE" if s > bound else "  >bound/3")
        print(f"{workload:<20} {name:<36} median {statistics.median(values):.5g} "
              f"spread {s:.3%}" + ("" if bound is None else f" bound {bound}") + flag)
    return 0


if __name__ == "__main__":
    sys.exit(main())
