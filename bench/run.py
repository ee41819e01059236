"""Benchmark of the hahnramsey command line, run in-process.

    python3 bench/run.py --workload mc_ou_figure --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The workload is a closed loop of
rounds; a round is a fixed list of ``hahnramsey.cli.main(argv)``
requests (see workloads.py), and rounds repeat until --seconds have
passed.  Every output is checked against the benchmark's own reference.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (see tracing.py), which also writes its spans to
.bench_results/spans-<workload>-<seed>.npz.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from inputs import DELTA, GAMMA, GAMMA_WEAK, LAM, RABI, THETA  # noqa: E402
from workloads import CLOSED_FORM_TOL, Request, f, read_csv  # noqa: E402

# set-up probes, spread evenly over the timed loop: this machine's speed
# wanders over seconds, and probes taken together all see the same speed
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 120


def import_program():
    """Import hahnramsey.cli from this checkout's src/, never from an
    installed copy."""
    init = SRC / "hahnramsey" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; "
                         "run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))
    from hahnramsey import cli
    if Path(cli.__file__).resolve().parent != init.parent.resolve():
        raise SystemExit(f"error: imported hahnramsey from {cli.__file__}")
    return cli


def execute(cli, req) -> tuple:
    """Run one request into an emptied output directory, so that its
    checks read only what this request wrote; returns (exit code or
    error text, seconds, stderr)."""
    shutil.rmtree(req.out, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(req.argv)
        except SystemExit as exc:            # argparse rejects the argv
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - reported as a failed request
            rc = f"{type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - t0, err.getvalue().strip()


def check(req) -> list:
    """The request's output checks; an output that cannot be read (a file
    left out, a malformed row) is a failed check, not a crash."""
    try:
        return req.check()
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        return [f"{req.kind}: outputs unreadable: {type(exc).__name__}: {exc}"]


def calibrate() -> float:
    """Wall time of a fixed mix of numpy and interpreter work that does
    not touch the program: the unit of round_p50_cal.  The machine's
    speed drifts by 10-30% over minutes; rounds timed in this unit drift
    much less (see README)."""
    rng = np.random.Generator(np.random.PCG64(7))
    t0 = time.perf_counter()
    for _ in range(30):
        np.sin(rng.normal(0.0, 1.0, 50_000)).sum()
    acc = 0.0
    for i in range(150_000):
        acc += (i * 0.5) % 3.0
    return time.perf_counter() - t0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def snapshot(paths) -> dict:
    return {p: p.read_bytes() for d in paths for p in sorted(d.rglob("*"))
            if p.is_file()}


def setup_probe(args) -> int:
    """Child process of the set-up measurement: import the program and
    run the workload's warm-up requests, then report ready."""
    cli = import_program()
    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    wl.prepare()
    for req in wl.warmup():
        rc, _, err = execute(cli, req)
        if rc != 0:
            print(f"warm-up {req.kind} failed: {rc} {err}", file=sys.stderr)
            return 1
    print("ready", flush=True)
    os._exit(0)      # skip the interpreter's teardown: it comes after 'ready'


def measure_setup(args, workdir: Path, probes) -> list:
    """Wall time from process start to 'ready' of one child per probe
    number in `probes`."""
    times = []
    for k in probes:
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", str(workdir / f"setup{k}")]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# spot checks, once per run and outside the timed loop


def spot_checks(cli, workdir: Path) -> list:
    """Worker-count determinism and the noiseless finite-pulse limit."""
    problems = []
    base = ["simulate", "--sequence", "hahn_ramsey", "--theta", f(THETA),
            "--delta", f(DELTA), "--lam", f(LAM), "--engine", "montecarlo",
            "--tau-start", "0.05", "--tau-stop", "2.0", "--tau-count", "3",
            "--seed", "20191218"]
    cases = {
        "ou": ["--gamma", f(GAMMA), "--noise-kind", "ou",
               "--n-trajectories", str(workloads.BLOCK + 100)],
        "renewal": ["--gamma", f(GAMMA_WEAK), "--noise-kind", "renewal",
                    "--n-trajectories", str(workloads.BLOCK + 100)],
        "finite": ["--gamma", f(GAMMA_WEAK), "--noise-kind", "renewal",
                   "--n-trajectories", "300", "--pulse-model", "finite",
                   "--rabi", f(RABI)],
    }
    for name, extra in cases.items():
        files = []
        for workers in (1, 2):
            out = workdir / "spot" / f"{name}_w{workers}"
            req = Request(name, base + extra + ["--workers", str(workers),
                                                "--out", str(out)], out, list)
            rc, _, err = execute(cli, req)
            if rc != 0:
                problems.append(f"spot {name} workers={workers}: exit {rc} {err}")
                break
            files.append((out / "hahn_ramsey_montecarlo.csv").read_bytes())
        else:
            if files[0] != files[1]:
                problems.append(f"spot {name}: workers 1 and 2 differ")

    out = workdir / "spot" / "noiseless_finite"
    taus = np.linspace(0.05, 7.0, 8)
    argv = ["simulate", "--sequence", "hahn_ramsey", "--theta", f(THETA),
            "--delta", f(DELTA), "--lam", f(LAM), "--noise-kind", "none",
            "--engine", "both", "--pulse-model", "finite", "--rabi", f(RABI),
            "--tau-start", "0.05", "--tau-stop", "7.0", "--tau-count", "8",
            "--n-trajectories", "16", "--out", str(out)]
    rc, _, err = execute(cli, Request("noiseless", argv, out, list))
    if rc != 0:
        return problems + [f"spot noiseless finite: exit {rc} {err}"]
    ref = reference.hahn_ramsey(THETA, DELTA, LAM, 0.0, taus)
    rows = read_csv(out / "hahn_ramsey_montecarlo.csv")[2]
    dev = float(np.abs(rows[:, 1] - ref).max())
    if not dev <= CLOSED_FORM_TOL or rows[:, 2].any():
        problems.append(f"spot noiseless finite: off the closed form by {dev:.3g}")
    return problems


# ---------------------------------------------------------------------------
# per-layer metrics of one traced round


def layer_metrics(red: dict, reqs) -> dict:
    blocks = sum(r.blocks for r in reqs)
    points = sum(r.traj_points for r in reqs)
    cells = sum(r.scan_cells for r in reqs)
    mc_busy = red["busy_s"]["montecarlo"]
    scan_s = tracing.span_time(red, "analysis.scan_noise_params", "cli")
    return {
        "cli.self_s": red["self_s"]["cli"],
        "montecarlo.busy_s": mc_busy,
        "montecarlo.self_s": red["self_s"]["montecarlo"],
        "montecarlo.s_per_block": mc_busy / blocks if blocks else 0.0,
        "montecarlo.trajectory_points_per_s": points / mc_busy if points else 0.0,
        "montecarlo.rng_draws": red["rng_draws"],
        "montecarlo.rng_s": red["rng_s"],
        "montecarlo.draws_per_trajectory_point":
            red["rng_draws"] / points if points else 0.0,
        "spincore.calls": red["calls"]["spincore"],
        "spincore.self_s": red["self_s"]["spincore"],
        "noise.calls": red["calls"]["noise"],
        "noise.self_s": red["self_s"]["noise"],
        "noise.chi_filter_s": tracing.span_time(red, "noise.chi_filter"),
        "analytic.calls": red["calls"]["analytic"],
        "analytic.self_s": red["self_s"]["analytic"],
        "analysis.self_s": red["self_s"]["analysis"],
        "analysis.sensitivity_s": tracing.span_time(red, "analysis.sensitivity", "cli"),
        "analysis.scan_s": scan_s,
        "analysis.fit_s": tracing.span_time(red, "analysis.fit_decay", "cli"),
        "analysis.scan_cells_per_s": cells / scan_s if scan_s else 0.0,
        "analysis.curve_fit_calls": red["curve_fit_calls"],
    }


UNITS = {"calls": "count", "rng_draws": "count", "curve_fit_calls": "count",
         "draws_per_trajectory_point": "count", "bytes_written": "bytes",
         "trajectory_points_per_s": "1/s", "scan_cells_per_s": "1/s",
         "round_p50_cal": "cal"}


def unit_of(name: str) -> str:
    return UNITS.get(name.split(".", 1)[1], "s")


# ---------------------------------------------------------------------------


def run(args) -> dict:
    cli = import_program()
    wl_cls = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(args, cli, wl_cls, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def _run(args, cli, wl_cls, workdir: Path) -> dict:
    info = {}

    wl = wl_cls(args.seed, workdir)
    wl.prepare()
    problems = []
    for req in wl.warmup():
        rc, _, err = execute(cli, req)
        if rc != 0:
            problems.append(f"warm-up {req.kind}: exit {rc} {err}")
    problems += spot_checks(cli, workdir)
    wl.pools.clear()

    tracer = None
    untraced = None
    if args.trace:
        # the same round untraced first: traced outputs must match its bytes
        reqs = wl.round(0)
        for req in reqs:
            execute(cli, req)
        untraced = snapshot(r.out for r in reqs)
        tracer = tracing.Tracer()
        tracer.install()

    attempted = failed = 0
    round_s, cal_s, kind_s, layers = [], [], {}, []
    span_chunks, span_names = [], {}
    probes = []
    probes_due = 0 if args.trace else SETUP_PROBES
    t_start = time.perf_counter()
    r = 0
    try:
        while r == 0 or time.perf_counter() - t_start < args.seconds:
            due_at = len(probes) * args.seconds / max(probes_due, 1)
            if len(probes) < probes_due and time.perf_counter() - t_start >= due_at:
                t0 = time.perf_counter()
                probes += measure_setup(args, workdir, [len(probes)])
                t_start += time.perf_counter() - t0   # not part of the run's seconds
            reqs = wl.round(r)
            cal_s.append(calibrate())
            spent = 0.0
            written = 0
            for req in reqs:
                rc, dt, err = execute(cli, req)
                attempted += 1
                spent += dt
                kind_s.setdefault(req.kind, []).append(dt)
                if rc != 0:
                    failed += 1
                    print(f"# failed {req.kind} round {r}: {rc} {err}")
                    continue
                if tracer is not None:
                    written += dir_bytes(req.out)
                problems += [f"round {r}: {p}" for p in check(req)]
            round_s.append(spent)
            if tracer is not None:
                red = tracer.take()
                span_chunks.append(tracing.spans_to_arrays(red.pop("spans"),
                                                           span_names))
                layers.append({**layer_metrics(red, reqs),
                               "cli.bytes_written": written})
                if r == 0 and snapshot(q.out for q in reqs) != untraced:
                    problems.append("traced round 0 wrote other bytes than untraced")
            r += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    cal_s.append(calibrate())
    problems += wl.finish()
    probes += measure_setup(args, workdir, range(len(probes), probes_due))
    if probes:
        info["setup_probes_s"] = probes
    # each round in units of the calibration runs just before and after it
    round_cal = [t / (0.5 * (a + b)) for t, a, b in zip(round_s, cal_s, cal_s[1:])]

    info.update(rounds=r, round_p50_s=statistics.median(round_s), round_s=round_s,
                calibration_s=cal_s, kind_p50_s={k: statistics.median(v)
                                      for k, v in sorted(kind_s.items())})
    if args.trace:
        # counts take a value of an actual round, times the plain median
        metrics = {name: (statistics.median_low if unit_of(name) in ("count", "bytes")
                          else statistics.median)([l[name] for l in layers])
                   for name in layers[0]}
        metrics["trace.round_p50_cal"] = statistics.median(round_cal)
        units = {name: unit_of(name) for name in metrics}
        spans_path = ROOT / ".bench_results" / f"spans-{args.workload}-{args.seed}.npz"
        tracing.write_spans(spans_path, span_chunks, span_names)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(info["setup_probes_s"]),
            "round_p50_cal": statistics.median(round_cal),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "round_p50_cal": "cal", "peak_rss_mib": "MiB"}
    for p in problems:
        print(f"# check failed: {p}")
    info["problems"] = len(problems)
    return {"info": info,
            "result": {"correct": not problems,
                       "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": units[k]}
                                   for k, v in metrics.items()}}}


def machine() -> dict:
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    out = run(args)
    print(f"# workload: {args.workload} seed: {args.seed} "
          f"seconds: {args.seconds} trace: {args.trace}")
    print(f"# machine: {json.dumps(machine())}")
    for key, val in out["info"].items():
        print(f"# {key}: {json.dumps(val)}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
