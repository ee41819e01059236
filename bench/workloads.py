"""The benchmark's workloads: the requests of one round, their small
warm-up forms, and the checks of every output against ``reference``.

A round is a fixed list of ``hahnramsey.cli.main(argv)`` requests.  Only
the Monte Carlo seeds change from round to round, so every round does
the same work.  Each request has a check that reads the files it wrote
and returns a list of problems (empty when the output is right).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import reference
from inputs import DELTA, GAMMA, LAM, THETA

BLOCK = 8192                 # trajectories per Monte Carlo block
MC_TAUS = 8                  # noisy tau points per Monte Carlo curve
MC_TRAJECTORIES = BLOCK
COMPONENT_TAUS = 81
# the closed forms are evaluated by the same float arithmetic in a
# different order; quadrature exponents are held to their stated accuracy
CLOSED_FORM_TOL = 1e-12
CHI_REL_TOL = 1e-6
THETA_TOL = 1e-6
FIT_Z_MAX = 5.0              # |tau_c - truth| within this many tau_c_err
# z-scores of Monte Carlo means are pooled per curve over the run's rounds
Z_SOFT, Z_SOFT_SHARE, Z_HARD = 3.0, 0.95, 5.0


@dataclass
class Request:
    kind: str
    argv: list
    out: Path
    check: Callable[[], list]
    traj_points: int = 0     # trajectories x noisy tau points
    blocks: int = 0          # 8192-trajectory blocks
    scan_cells: int = 0


def f(x: float) -> str:
    return repr(float(x))


def read_csv(path: Path):
    """(comment lines, header, float rows) of a CSV the program wrote."""
    comments, header, rows = [], None, []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append([float(c) for c in line.split(",")])
    return comments, header, np.array(rows, dtype=float)


def _hashed(comments) -> list:
    ok = comments and comments[0].startswith("# config_sha256=")
    return [] if ok else ["missing config_sha256 header"]


def _tau_grid(count: int, start=inputs.TAU_START, stop=inputs.TAU_STOP):
    return ["--tau-start", f(start), "--tau-stop", f(stop),
            "--tau-count", str(count)]


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.pools = {}          # curve label -> list of z arrays

    def prepare(self) -> None:
        """Write the input files the requests read."""

    def warmup(self) -> list:
        """One small request per command kind of the workload."""
        raise NotImplementedError

    def round(self, r: int) -> list:
        raise NotImplementedError

    def finish(self) -> list:
        """Checks over the whole run: pooled Monte Carlo z-scores."""
        problems = []
        for label, zs in sorted(self.pools.items()):
            z = np.abs(np.concatenate(zs))
            share = float((z < Z_SOFT).mean())
            if share < Z_SOFT_SHARE:
                problems.append(f"{label}: only {share:.3f} of |z| < {Z_SOFT}")
            if z.max() >= Z_HARD:
                problems.append(f"{label}: max |z| = {z.max():.2f}")
        return problems

    def out(self, label: str) -> Path:
        return self.workdir / "out" / label

    # -- Monte Carlo checks ---------------------------------------------

    def check_mc(self, label, path, taus, ref, n):
        comments, header, rows = read_csv(path)
        problems = _hashed(comments)
        if header != ["tau", "mean", "stderr", "n"] or rows.shape != (taus.size, 4):
            return problems + [f"{path.name}: unexpected layout {header} {rows.shape}"]
        t, mean, err, count = rows.T
        if not np.array_equal(t, taus):
            problems.append(f"{path.name}: tau grid differs")
        if not np.isfinite(rows).all():
            problems.append(f"{path.name}: non-finite value")
            return problems
        if (np.abs(mean) > 1).any():
            problems.append(f"{path.name}: mean outside [-1, 1]")
        if not (err > 0).all():
            problems.append(f"{path.name}: stderr not > 0")
            return problems
        if not (count == n).all():
            problems.append(f"{path.name}: n column != {n}")
        self.pools.setdefault(label, []).append((mean - ref) / err)
        return problems


def check_closed_form(path: Path, taus, ref) -> list:
    comments, header, rows = read_csv(path)
    problems = _hashed(comments)
    if header != ["tau", "signal"] or rows.shape != (taus.size, 2):
        return problems + [f"{path.name}: unexpected layout"]
    if not np.array_equal(rows[:, 0], taus):
        problems.append(f"{path.name}: tau grid differs")
    dev = np.abs(rows[:, 1] - ref).max()
    if not dev <= CLOSED_FORM_TOL:
        problems.append(f"{path.name}: closed form off the reference by {dev:.3g}")
    return problems


def check_compare(path: Path, analytic, mc) -> list:
    comments, header, rows = read_csv(path)
    problems = _hashed(comments)
    if header != ["tau", "analytic", "mc_mean", "mc_stderr", "zscore"]:
        return problems + [f"{path.name}: unexpected layout"]
    if not (np.array_equal(rows[:, 1], analytic)
            and np.array_equal(rows[:, 2:4], mc)):
        problems.append(f"{path.name}: columns disagree with the curve files")
    if not np.isfinite(rows).all():
        problems.append(f"{path.name}: non-finite value")
    return problems


# ---------------------------------------------------------------------------


SEQUENCES = {
    # name: (extra argv, reference curve)
    "ramsey": (["--delta", f(DELTA)],
               lambda lam, g, t: reference.ramsey(DELTA, lam, g, t)),
    "hahn_echo": ([], lambda lam, g, t: reference.hahn_echo(lam, g, t)),
    "hahn_ramsey": (["--theta", f(THETA), "--delta", f(DELTA)],
                    lambda lam, g, t: reference.hahn_ramsey(THETA, DELTA, lam, g, t)),
}


class McOuFigure(Workload):
    """simulate --engine both for the three sequences, OU noise,
    instantaneous pulses, one worker."""

    name = "mc_ou_figure"

    def _request(self, seq, taus_count, n, seed) -> Request:
        extra, ref_fn = SEQUENCES[seq]
        out = self.out(seq)
        taus = np.linspace(inputs.TAU_START, inputs.TAU_STOP, taus_count)
        argv = (["simulate", "--sequence", seq, *extra,
                 "--lam", f(LAM), "--gamma", f(GAMMA), "--noise-kind", "ou",
                 "--engine", "both", "--n-trajectories", str(n),
                 "--workers", "1", "--seed", str(seed), "--out", str(out)]
                + _tau_grid(taus_count))
        ref = ref_fn(LAM, GAMMA, taus)

        def check():
            problems = check_closed_form(out / f"{seq}_analytic.csv", taus, ref)
            mc_path = out / f"{seq}_montecarlo.csv"
            problems += self.check_mc(seq, mc_path, taus, ref, n)
            if not problems:
                analytic = read_csv(out / f"{seq}_analytic.csv")[2][:, 1]
                mc = read_csv(mc_path)[2][:, 1:3]
                problems += check_compare(out / f"{seq}_compare.csv", analytic, mc)
            return problems

        blocks = taus_count * math.ceil(n / BLOCK)
        return Request(f"simulate:{seq}", argv, out, check,
                       traj_points=taus_count * n, blocks=blocks)

    def warmup(self):
        return [self._request("ramsey", 2, 64, 1)]

    def round(self, r):
        return [self._request(seq, MC_TAUS, MC_TRAJECTORIES,
                              inputs.mc_seed(self.seed, r, k))
                for k, seq in enumerate(SEQUENCES)]


class AnalysisReport(Workload):
    """sensitivity, a 101 x 101 scan, a Gaussian-envelope fit, the
    component tables and a Bloch path: closed forms, quadrature, fits."""

    name = "analysis_report"

    U, V = 1.3, 0.7
    GAMMA_E = 2.8025

    def prepare(self):
        data = self.workdir / "inputs"
        data.mkdir(parents=True, exist_ok=True)
        self.scan_csv = data / "scan_data.csv"
        self.scan_cell = inputs.scan_input(self.seed, self.scan_csv)
        self.fit_csv = data / "fit_data.csv"
        self.fit_truth = inputs.fit_input(self.seed, self.fit_csv)

    def _noise(self):
        return ["--lam", f(LAM), "--gamma", f(GAMMA)]

    def sensitivity(self) -> Request:
        out = self.out("sensitivity")
        argv = ["sensitivity", *self._noise(), "--u", f(self.U), "--v", f(self.V),
                "--gamma-e", f(self.GAMMA_E), "--out", str(out)]

        def check():
            rep = json.loads((out / "sensitivity.json").read_text())
            problems = []
            vals = [rep[k] for k in ("delta_b_min_gauss", "optimal_tau",
                                     "optimal_theta_rad", "eta", "t2")]
            if not all(math.isfinite(v) and v > 0 for v in vals):
                return [f"sensitivity: non-finite or non-positive value {vals}"]
            if abs(rep["optimal_theta_rad"] - reference.OPTIMAL_THETA) > THETA_TOL:
                problems.append(f"sensitivity: theta* = {rep['optimal_theta_rad']!r}")
            db = reference.min_detectable_field(rep["optimal_tau"], self.U, self.V,
                                                self.GAMMA_E)
            if abs(rep["delta_b_min_gauss"] - db) > CLOSED_FORM_TOL * db:
                problems.append(f"sensitivity: delta_b_min {rep['delta_b_min_gauss']!r}"
                                f" != {db!r}")
            if not 0.1 / LAM <= rep["optimal_tau"] <= 10.0 / LAM:
                problems.append("sensitivity: optimal_tau outside its grid")
            return problems

        return Request("sensitivity", argv, out, check)

    def scan(self, lam_spec, gamma_spec, cell) -> Request:
        out = self.out("scan")
        argv = ["scan", "--sequence", "hahn_ramsey", "--theta", f(THETA),
                "--delta", f(DELTA), "--data", str(self.scan_csv),
                "--lambda-min", f(lam_spec[0]), "--lambda-max", f(lam_spec[1]),
                "--lambda-count", str(lam_spec[2]),
                "--gamma-min", f(gamma_spec[0]), "--gamma-max", f(gamma_spec[1]),
                "--gamma-count", str(gamma_spec[2]), "--out", str(out)]
        lam_grid, gamma_grid = np.linspace(*lam_spec), np.linspace(*gamma_spec)

        def check():
            comments, header, rows = read_csv(out / "scan_scan_data.csv")
            problems = _hashed(comments)
            if header != ["lambda", "gamma", "residual"] or \
                    rows.shape != (lam_grid.size * gamma_grid.size, 3):
                return problems + ["scan: unexpected layout"]
            if not np.isfinite(rows).all():
                return problems + ["scan: non-finite residual"]
            res = rows[:, 2].reshape(lam_grid.size, gamma_grid.size)
            argmin = np.unravel_index(int(res.argmin()), res.shape)
            if cell is not None and tuple(int(k) for k in argmin) != cell:
                problems.append(f"scan: argmin {argmin} != generating cell {cell}")
            return problems

        return Request("scan", argv, out, check,
                       scan_cells=lam_grid.size * gamma_grid.size)

    def fit(self) -> Request:
        out = self.out("fit")
        argv = ["fit", "--data", str(self.fit_csv), "--model", "gaussian",
                "--out", str(out)]
        truth = self.fit_truth

        def check():
            rep = json.loads((out / "fit_fit_data.json").read_text())
            keys = ("tau_c", "tau_c_err", "amplitude", "offset", "frequency",
                    "phase", "residual_norm")
            if not all(math.isfinite(rep[k]) for k in keys) or rep["tau_c_err"] <= 0:
                return [f"fit: bad report {rep}"]
            z = abs(rep["tau_c"] - truth["tau_c"]) / rep["tau_c_err"]
            if z >= FIT_Z_MAX:
                return [f"fit: tau_c {rep['tau_c']!r} is {z:.1f} errors off "
                        f"{truth['tau_c']!r}"]
            return []

        return Request("fit", argv, out, check)

    def components(self, count) -> Request:
        out = self.out("components")
        taus = np.linspace(inputs.TAU_START, inputs.TAU_STOP, count)
        argv = ["components", *self._noise(), *_tau_grid(count), "--out", str(out)]

        def check():
            comments, header, rows = read_csv(out / "filter_exponents.csv")
            problems = _hashed(comments)
            if header != ["tau", "ramsey_like", "half_period", "hahn_like"] or \
                    rows.shape != (count, 4) or not np.array_equal(rows[:, 0], taus):
                return problems + ["components: unexpected exponent table"]
            F1 = reference.f1(LAM, GAMMA, taus)
            dF = reference.delta_f(LAM, GAMMA, taus)
            want = np.stack([2 * (F1 + dF), F1, 2 * (F1 - dF)], axis=1)
            rel = np.abs(rows[:, 1:] - want) / want
            if not rel.max() <= CHI_REL_TOL:
                problems.append(f"components: exponent off by {rel.max():.3g} relative")
            comments, header, rows = read_csv(out / "component_weights.csv")
            problems += _hashed(comments)
            if header != ["theta", "constant", "ramsey_like", "cos_delta", "cos_2delta"]:
                return problems + ["components: unexpected weight table"]
            want = np.array([reference.component_weights(th) for th in rows[:, 0]])
            dev = np.abs(rows[:, 1:] - want).max()
            if not dev <= CLOSED_FORM_TOL:
                problems.append(f"components: weights off by {dev:.3g}")
            return problems

        return Request("components", argv, out, check)

    def bloch(self, samples) -> Request:
        out = self.out("bloch")
        tau = 1.0
        argv = ["bloch", "--sequence", "hahn_ramsey", "--theta", f(THETA),
                "--delta", f(DELTA), "--tau", f(tau), "--samples", str(samples),
                "--out", str(out)]

        def check():
            comments, header, rows = read_csv(out / "bloch_hahn_ramsey.csv")
            problems = _hashed(comments)
            if header != ["t", "x", "y", "z"] or rows.shape != (1 + 5 * samples, 4):
                return problems + ["bloch: unexpected layout"]
            radius = np.sqrt((rows[:, 1:] ** 2).sum(axis=1))
            if not np.abs(radius - 1).max() <= CLOSED_FORM_TOL:
                problems.append("bloch: point off the unit sphere")
            end = reference.hahn_ramsey(THETA, DELTA, LAM, 0.0, tau)
            if not abs(rows[-1, 3] - end) <= CLOSED_FORM_TOL:
                problems.append(f"bloch: final z {rows[-1, 3]!r} != {end!r}")
            return problems

        return Request("bloch", argv, out, check)

    def warmup(self):
        # sensitivity has no small form (its grids are fixed); it is
        # left to the first timed round
        return [self.scan((1.0, 4.0, 3), (0.2, 1.2, 3), None), self.fit(),
                self.components(2), self.bloch(2)]

    def round(self, r):
        return [self.sensitivity(),
                self.scan(inputs.SCAN_LAMBDA, inputs.SCAN_GAMMA, self.scan_cell),
                self.fit(), self.components(COMPONENT_TAUS), self.bloch(60)]


WORKLOADS = {w.name: w for w in (McOuFigure, AnalysisReport)}
