"""Command-line interface.

Units at the boundary: times in microseconds, rates (lambda) in 1/us,
and frequencies (delta, gamma, rabi) in rad/us by default.  With
``--freq-unit cycles`` the frequency-like inputs are read in cycles/us
(MHz) and multiplied by 2 pi on ingest; lambda is a rate, never
converted.

Configuration precedence: flags > HRSIM_* environment variables > JSON
config file > defaults.  Every output file embeds a header comment with
a hash of the fully resolved configuration, and reruns with the same
configuration and seed are byte-identical at any worker count.

Exit codes: 0 success; 2 bad input (a configuration value, flag or data
file line), with the field, flag or file line named on stderr; 3 runtime
failure.  Non-finite numbers are bad input wherever they are read.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, analytic, montecarlo, noise, spincore
from ._datafile import write_csv as _write_csv

ENV_PREFIX = "HRSIM_"
# bound on |float input|, and 1/MAX_MAGNITUDE on lam (so that (Gamma/lam)^2
# does not overflow) and on --gamma-e
MAX_MAGNITUDE = 1e12
# bound on the points of every grid (tau, theta, scan, bloch samples): numpy
# cannot allocate 1e20 of them
MAX_COUNT = 10 ** 6
# bound on Monte Carlo trajectories times tau points: about two minutes of
# instantaneous-pulse OU sampling on one core (1e20 trajectories never end)
MAX_TRAJECTORY_POINTS = 10 ** 9

# sorted, so --sequence's choices read in a fixed order in --help and errors
_SEQUENCES = tuple(sorted(k.value for k in spincore.SequenceKind))


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


@dataclasses.dataclass
class RunConfig:
    sequence: str = "hahn_ramsey"
    theta: float | None = None          # rad; exclusive with rabi+delta
    rabi: float | None = None
    tilt_convention: str = "geometric"  # or "nutation"
    delta: float = 0.0
    lam: float = 1.0
    gamma: float = 0.0
    noise_kind: str = "ou"              # ou | renewal | none
    tau_start: float = 0.0
    tau_stop: float = 1.0
    tau_count: int = 2
    engine: str = "analytic"            # analytic | montecarlo | both
    n_trajectories: int = 10000
    time_step: float = 0.01
    pulse_model: str = "instantaneous"
    seed: int = 12345
    out: str = "out"
    freq_unit: str = "rad"              # rad | cycles
    workers: int = 1

    def validate(self) -> None:
        for name in sorted(_FLOAT_FIELDS):
            value = getattr(self, name)
            if value is not None and not abs(value) <= MAX_MAGNITUDE:
                raise ConfigError(name, f"must be finite, |x| <= {MAX_MAGNITUDE:g}, "
                                        f"got {value!r}")
        if self.sequence not in _SEQUENCES:
            raise ConfigError("sequence", f"unknown sequence '{self.sequence}'")
        if self.engine not in ("analytic", "montecarlo", "both"):
            raise ConfigError("engine", f"unknown engine '{self.engine}'")
        if self.freq_unit not in ("rad", "cycles"):
            raise ConfigError("freq_unit", "must be 'rad' or 'cycles'")
        if self.noise_kind not in ("ou", "renewal", "none"):
            raise ConfigError("noise_kind", "must be ou, renewal or none")
        if self.tilt_convention not in ("geometric", "nutation"):
            raise ConfigError("tilt_convention", "must be geometric or nutation")
        if not 2 <= self.tau_count <= MAX_COUNT:
            raise ConfigError("tau_count", f"grid needs 2 to {MAX_COUNT} points")
        if not (self.tau_stop > self.tau_start >= 0):
            raise ConfigError("tau_stop", "need stop > start >= 0")
        if not self.lam >= 1 / MAX_MAGNITUDE:
            raise ConfigError("lam", f"correlation rate must be >= {1 / MAX_MAGNITUDE:g}")
        if self.gamma < 0:
            raise ConfigError("gamma", "noise strength must be >= 0")
        if self.n_trajectories < 1:
            raise ConfigError("n_trajectories", "must be >= 1")
        if self.engine == "both" and self.n_trajectories < 2:
            raise ConfigError("n_trajectories", "the z-scores of --engine both "
                                                "need a stderr, so >= 2")
        if (self.engine != "analytic"
                and self.n_trajectories * self.tau_count > MAX_TRAJECTORY_POINTS):
            raise ConfigError("n_trajectories",
                              f"n_trajectories * tau_count must be <= "
                              f"{MAX_TRAJECTORY_POINTS:g}, got "
                              f"{self.n_trajectories} * {self.tau_count}")
        if self.time_step <= 0:
            raise ConfigError("time_step", "must be > 0")
        if self.workers < 1:
            raise ConfigError("workers", "must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed", "must be a non-negative integer")
        if self.pulse_model not in ("instantaneous", "finite"):
            raise ConfigError("pulse_model", "must be instantaneous or finite")
        if self.rabi is not None and self.rabi <= 0:
            raise ConfigError("rabi", "must be > 0")
        if self.pulse_model == "finite" and not (self.rabi or 0.0) >= 1 / MAX_MAGNITUDE:
            # pulses of area/rabi must last a finite time
            raise ConfigError("rabi", f"finite pulses need a rabi frequency "
                                      f">= {1 / MAX_MAGNITUDE:g}")
        if self.theta is not None and not (0 < self.theta <= math.pi / 2):
            raise ConfigError("theta", "must lie in (0, pi/2]")
        if self.sequence == "hahn_echo":
            if self.delta != 0.0:
                raise ConfigError("delta", "hahn_echo is resonant, set delta = 0")
            if self.theta is not None and not spincore.is_resonant(self.theta):
                raise ConfigError("theta", "hahn_echo uses theta = pi/2")

    def resolved_theta(self) -> float:
        if self.sequence == "hahn_echo":
            return math.pi / 2
        if self.theta is not None:
            return self.theta
        if self.rabi is not None:
            return spincore.tilt_angle(
                spincore.DrivingParams(self.rabi, self.delta),
                spincore.TiltConvention(self.tilt_convention))
        if self.sequence == "ramsey":
            return math.pi / 2
        raise ConfigError("theta", "hahn_ramsey needs theta or rabi+delta")

    def closed_form_theta(self) -> float:
        """resolved_theta; the closed forms know ramsey at pi/2 only."""
        theta = self.resolved_theta()
        if self.sequence == "ramsey" and not spincore.is_resonant(theta):
            raise ConfigError("theta", "analytic ramsey signal assumes theta = pi/2")
        return theta

    def noise_params(self) -> noise.NoiseParams:
        kind = noise.NoiseKind(self.noise_kind)
        gamma = 0.0 if kind is noise.NoiseKind.NONE else self.gamma
        return noise.NoiseParams(self.lam, gamma, kind)

    def taus(self) -> np.ndarray:
        return np.linspace(self.tau_start, self.tau_stop, self.tau_count)


_FREQ_FIELDS = ("delta", "gamma", "rabi")  # converted under --freq-unit cycles
_FLOAT_FIELDS = {"theta", "rabi", "delta", "lam", "gamma", "tau_start",
                 "tau_stop", "time_step"}
_INT_FIELDS = {"tau_count", "n_trajectories", "seed", "workers"}


def load_config(path: str | None, flags: dict) -> RunConfig:
    values: dict = {}
    if path:
        p = Path(path)
        if not p.exists():
            raise ConfigError("config", f"file not found: {path}")
        try:
            raw = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON at line {exc.lineno}: {exc.msg}")
        if not isinstance(raw, dict):
            raise ConfigError("config", "top level must be a JSON object")
        for key, val in raw.items():
            key = "lam" if key == "lambda" else key
            values[key] = val
    for field in dataclasses.fields(RunConfig):
        env = os.environ.get(ENV_PREFIX + field.name.upper())
        if env is not None:
            values[field.name] = env
    for key, val in flags.items():
        if val is not None:
            values[key] = val

    cfg = RunConfig()
    for key, val in values.items():
        if key not in _CFG_KEYS:
            raise ConfigError(key, "unknown configuration key")
        try:
            if key in _FLOAT_FIELDS and val is not None:
                val = float(val)
            elif key in _INT_FIELDS:
                if isinstance(val, float) and not val.is_integer():
                    raise ValueError   # int() truncates 2.7 and overflows on inf
                val = int(val)
            elif key in ("sequence", "engine", "freq_unit", "noise_kind",
                         "tilt_convention", "pulse_model", "out"):
                val = str(val)
        except (TypeError, ValueError):
            raise ConfigError(key, f"cannot parse value {val!r}")
        setattr(cfg, key, val)
    if cfg.freq_unit == "cycles":
        for name in _FREQ_FIELDS:
            v = getattr(cfg, name)
            if v is not None:
                setattr(cfg, name, 2 * math.pi * v)
        cfg.freq_unit = "rad"   # record post-conversion state
    cfg.validate()
    return cfg


def config_hash(cfg: RunConfig) -> str:
    """Hash of the resolved physics + seed configuration; placement
    (out), scheduling (workers) and, unless pulses are finite, time_step
    do not change the result bytes and are excluded."""
    d = dataclasses.asdict(cfg)
    d.pop("out", None)
    d.pop("workers", None)
    if cfg.pulse_model != "finite":
        d.pop("time_step", None)
    blob = json.dumps(d, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _check_tau_scale(tau_scale: float) -> None:
    if not (math.isfinite(tau_scale) and tau_scale > 0):
        raise ConfigError("--tau-scale", "must be finite and > 0")


def read_curve_csv(path, tau_scale: float = 1.0) -> montecarlo.SignalCurve:
    """Read tau,signal[,stderr] (or tau,mean,stderr,n) data files.

    tau_scale converts the file's declared time unit to the working unit
    (microseconds): stored tau = file tau * tau_scale.  A row that is short,
    does not parse, holds a non-finite value or a stored |tau| over
    MAX_MAGNITUDE raises ConfigError naming the file and line.
    """
    _check_tau_scale(tau_scale)
    if not Path(path).is_file():
        raise ConfigError("data", f"file not found: {path}")
    taus, means, errs = [], [], []
    n = 0
    with open(path) as fh:
        header = None
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = [c.strip().lower() for c in line.split(",")]
                continue
            where = f"{path} line {lineno}"
            cells = line.split(",")
            has_err = len(cells) > 2 and len(header) > 2 and header[2] == "stderr"
            try:
                row = [float(c) for c in cells[:3 if has_err else 2]]
                if len(cells) > 3 and header[-1] == "n":
                    n = int(cells[3])
            except ValueError:
                raise ConfigError("data", f"{where}: cannot parse {line!r}") from None
            row[0] *= tau_scale
            if len(row) < 2 or not (all(map(math.isfinite, row))
                                    and abs(row[0]) <= MAX_MAGNITUDE):
                raise ConfigError("data", f"{where}: need finite cells and |tau| <= "
                                          f"{MAX_MAGNITUDE:g} after scaling, got {line!r}")
            taus.append(row[0])
            means.append(row[1])
            errs.extend(row[2:])
    if header is None or len(taus) == 0:
        raise ConfigError("data", f"no data rows in {path}")
    errs = errs if len(errs) == len(taus) else [0.0] * len(taus)
    return montecarlo.SignalCurve(np.asarray(taus), np.asarray(means),
                                  np.asarray(errs), n)


def _require_gaussian(cfg: RunConfig, what: str) -> None:
    """Renewal noise shares the OU second moments but not the Gaussian
    averaging behind every closed form, so those are no model for it."""
    if cfg.noise_kind == "renewal":
        raise ConfigError("noise_kind", f"{what} assumes Gaussian (ou) noise, "
                                        f"renewal noise has no closed form here")


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(cfg: RunConfig, with_components: bool = False) -> int:
    theta = (cfg.closed_form_theta() if cfg.engine in ("analytic", "both")
             else cfg.resolved_theta())
    if with_components and cfg.sequence != "hahn_ramsey":
        raise ConfigError("sequence",
                          "component columns exist only for hahn_ramsey")
    if cfg.engine == "analytic":
        _require_gaussian(cfg, "the analytic engine")
    taus = cfg.taus()
    kind = spincore.SequenceKind(cfg.sequence)
    an = mc = None
    if cfg.engine in ("analytic", "both"):
        an = analytic.closed_form_signal(kind, theta, cfg.delta,
                                         cfg.noise_params(), taus)
    if cfg.engine in ("montecarlo", "both"):
        mcfg = montecarlo.McConfig(cfg.n_trajectories, cfg.seed, cfg.time_step,
                                   cfg.pulse_model, cfg.rabi, cfg.workers)
        try:
            mc = montecarlo.run_mc(kind, theta, cfg.delta, cfg.noise_params(),
                                   taus, mcfg)
        except montecarlo.PulseStepError as exc:
            raise ConfigError("rabi", f"{exc}; raise rabi or time_step") from None
        except montecarlo.RenewalEventError as exc:
            raise ConfigError("lam", f"{exc}; lower lam or tau_stop") from None
    out = _out_dir(cfg)
    comment = f"config_sha256={config_hash(cfg)}"
    wrote = []
    if an is not None:
        path = out / f"{cfg.sequence}_analytic.csv"
        header, rows = "tau,signal", zip(taus, an)
        if with_components:
            header += "".join(f",component_{n}" for n in
                              ("constant", "ramsey_like", "cos_delta", "cos_2delta"))
            terms = analytic._detuned_echo_terms(
                theta, cfg.delta, noise.filter_exponents(cfg.noise_params(), taus),
                taus, 0.0)
            rows = np.column_stack([taus, an, *np.broadcast_arrays(*terms)])
        _write_csv(path, header, rows, [comment])
        wrote.append(path)
    if mc is not None:
        path = out / f"{cfg.sequence}_montecarlo.csv"
        mc.to_csv(path, comment)
        wrote.append(path)
    if cfg.engine == "both":
        path = out / f"{cfg.sequence}_compare.csv"
        rows = []
        for t, a, m, s in zip(taus, an, mc.means, mc.stderrs):
            if s > 0:
                z = (m - a) / s
            else:
                z = 0.0 if abs(m - a) < 1e-12 else math.inf
            rows.append((t, a, m, s, z))
        comments = [comment]
        if cfg.pulse_model == "finite" and cfg.noise_params().gamma > 0:
            comments.append("warning: the closed form assumes instantaneous pulses, "
                            "so with noise these z-scores are not a correctness gate")
        if cfg.noise_kind == "renewal":
            comments.append("warning: the closed form assumes Gaussian (ou) noise, "
                            "so with renewal noise these z-scores are not a "
                            "correctness gate")
        _write_csv(path, "tau,analytic,mc_mean,mc_stderr,zscore", rows, comments)
        wrote.append(path)
    for p in wrote:
        print(p)
    return 0


def cmd_components(cfg: RunConfig, theta_count: int = 91) -> int:
    if not 1 <= theta_count <= MAX_COUNT:
        raise ConfigError("--theta-count", f"must lie in [1, {MAX_COUNT}]")
    taus, p = cfg.taus(), cfg.noise_params()
    rows = np.column_stack([taus, *noise.filter_exponents(p, taus)])
    out = _out_dir(cfg)
    comments = [f"config_sha256={config_hash(cfg)}"]
    path1 = out / "filter_exponents.csv"
    _write_csv(path1, "tau," + ",".join(k.value for k in noise.FilterKind), rows,
               comments)
    path2 = out / "component_weights.csv"
    thetas = np.linspace(1e-3, math.pi / 2, theta_count)
    _write_csv(path2, "theta,constant,ramsey_like,cos_delta,cos_2delta",
               ((th, *analytic.component_weights(float(th))) for th in thetas), comments)
    print(path1)
    print(path2)
    return 0


def cmd_fit(cfg: RunConfig, data_path: str, model: str,
            tau_scale: float = 1.0) -> int:
    # the fit runs in the file's own time unit, so the solver and its
    # covariance never see the scale; the time-valued results convert after
    _check_tau_scale(tau_scale)
    curve = read_curve_csv(data_path)
    try:
        fit = analysis.fit_decay(curve, analysis.FitModel(model))
    except analysis.FitInputError as exc:
        raise ConfigError("data", f"{data_path}: {exc}") from None
    scaled = {"tau_c": fit.tau_c * tau_scale, "tau_c_err": fit.tau_c_err * tau_scale,
              "frequency": fit.frequency / tau_scale}
    if not all(map(math.isfinite, scaled.values())):
        raise ConfigError("--tau-scale", f"{tau_scale:g} takes the fitted tau_c, "
                                         f"tau_c_err or frequency out of float range")
    return _write_json(cfg, f"fit_{Path(data_path).stem}.json",
                       {"config_sha256": config_hash(cfg), "model": model,
                        "data": str(data_path), **fit.to_dict(), **scaled})


def _write_json(cfg: RunConfig, name: str, payload: dict) -> int:
    """Write the report to the output directory and echo it."""
    path = _out_dir(cfg) / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(path)
    return 0


def _scan_grid(name: str, spec, positive: bool) -> np.ndarray:
    """Grid of the --NAME-min/max/count flags: values up to MAX_MAGNITUDE
    and >= 1/MAX_MAGNITUDE when positive, else >= 0; 1 to MAX_COUNT points."""
    low = 1 / MAX_MAGNITUDE if positive else 0.0
    for suffix, value in zip(("min", "max"), spec):
        if not low <= value <= MAX_MAGNITUDE:
            raise ConfigError(f"--{name}-{suffix}",
                              f"must lie in [{low:g}, {MAX_MAGNITUDE:g}]")
    if not 1 <= spec[2] <= MAX_COUNT:
        raise ConfigError(f"--{name}-count", f"must lie in [1, {MAX_COUNT}]")
    return np.linspace(*spec)


def cmd_scan(cfg: RunConfig, data_paths, lam_spec, gamma_spec,
             tau_scale: float = 1.0) -> int:
    lam_grid = _scan_grid("lambda", lam_spec, positive=True)
    gamma_grid = _scan_grid("gamma", gamma_spec, positive=False)
    _require_gaussian(cfg, "the scan's residual model")
    theta = cfg.closed_form_theta()
    curves = [read_curve_csv(dp, tau_scale) for dp in data_paths]
    out = _out_dir(cfg)
    comment = f"config_sha256={config_hash(cfg)}"
    kind = spincore.SequenceKind(cfg.sequence)
    for dp, curve in zip(data_paths, curves):
        m = analysis.scan_noise_params(curve, kind, theta, cfg.delta,
                                       lam_grid, gamma_grid)
        path = out / f"scan_{Path(dp).stem}.csv"
        m.to_csv(path, comment)
        print(f"{path} argmin lambda={m.best[0]:.6g} gamma={m.best[1]:.6g}")
    return 0


def cmd_sensitivity(cfg: RunConfig, u: float, v: float, gamma_e: float) -> int:
    if cfg.sequence != "hahn_ramsey":
        raise ConfigError("sequence", "the sensitivity model is the detuned "
                                      "echo's: only hahn_ramsey has it")
    # within these bounds, and gamma's, the field floor and eta stay finite
    # and nonzero: u / 2 does not underflow, nor gamma^2
    low = 1 / MAX_MAGNITUDE
    if not (low <= u <= MAX_MAGNITUDE and 0 <= v < u):
        raise ConfigError("--u", f"need u in [{low:g}, {MAX_MAGNITUDE:g}] and "
                                 f"0 <= v < u (bright above dark)")
    if not low <= gamma_e <= MAX_MAGNITUDE:
        raise ConfigError("--gamma-e", f"must lie in [{low:g}, {MAX_MAGNITUDE:g}]")
    if not cfg.noise_params().gamma >= low:
        raise ConfigError("gamma", f"sensitivity needs a dephasing strength >= {low:g}")
    _require_gaussian(cfg, "the bias-slope model of sensitivity")
    readout = analysis.ReadoutModel(u, v)
    theta = None
    tilt_name = "theta" if cfg.theta is not None else "rabi"
    if cfg.theta is not None or cfg.rabi is not None:
        theta = cfg.resolved_theta()
        if spincore.is_resonant(theta):
            # the bias slope carries cos^3 theta: about 1e-32 at pi/2
            raise ConfigError(tilt_name, "a resonant tilt (pi/2) has no bias "
                                         "slope to sense a field with")
    try:
        res = analysis.sensitivity(cfg.noise_params(), readout, theta, gamma_e)
    except analysis.FitInputError as exc:
        # below a tilt of about 3e-7 the fringe has no contrast left to fit
        raise ConfigError(tilt_name,
                          f"the tilt leaves the fringe flat: {exc}") from None
    return _write_json(cfg, "sensitivity.json", {
        "config_sha256": config_hash(cfg), "delta_b_min_gauss": res.delta_b_min,
        "optimal_tau": res.optimal_tau, "optimal_theta_rad": res.optimal_theta,
        "eta": res.eta, "t2": res.t2, "gamma_e": gamma_e, "u": u, "v": v})


def cmd_bloch(cfg: RunConfig, tau: float, samples: int) -> int:
    if not 0 <= tau <= MAX_MAGNITUDE:
        raise ConfigError("--tau", f"must lie in [0, {MAX_MAGNITUDE:g}]")
    if not 1 <= samples <= MAX_COUNT:
        raise ConfigError("--samples", f"must lie in [1, {MAX_COUNT}]")
    out = _out_dir(cfg)
    pts = montecarlo.bloch_trajectory(spincore.SequenceKind(cfg.sequence),
                                      cfg.resolved_theta(), cfg.delta, tau,
                                      samples)
    path = out / f"bloch_{cfg.sequence}.csv"
    montecarlo.bloch_to_csv(pts, path, f"config_sha256={config_hash(cfg)}")
    print(path)
    return 0


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file")
    # integer fields take strings: load_config parses them, as from env and files
    sub.add_argument("--seed")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--freq-unit", choices=["rad", "cycles"], dest="freq_unit")
    sub.add_argument("--sequence", choices=_SEQUENCES)
    sub.add_argument("--theta", type=float, help="tilt angle in rad")
    sub.add_argument("--rabi", type=float)
    sub.add_argument("--tilt-convention", choices=["geometric", "nutation"],
                     dest="tilt_convention")
    sub.add_argument("--delta", type=float, help="fringe detuning")
    sub.add_argument("--lam", type=float, help="noise correlation rate (1/us)")
    sub.add_argument("--gamma", type=float, help="noise strength")
    sub.add_argument("--noise-kind", choices=["ou", "renewal", "none"],
                     dest="noise_kind")
    sub.add_argument("--tau-start", type=float, dest="tau_start")
    sub.add_argument("--tau-stop", type=float, dest="tau_stop")
    sub.add_argument("--tau-count", dest="tau_count")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hahnramsey",
        description="Detuned spin-echo dephasing simulations and analysis "
                    "(times in us, frequencies in rad/us unless --freq-unit cycles)")
    subs = ap.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="signal curves per engine")
    _add_common(sim)
    sim.add_argument("--engine", choices=["analytic", "montecarlo", "both"])
    sim.add_argument("--n-trajectories", dest="n_trajectories")
    sim.add_argument("--time-step", type=float, dest="time_step",
                     help="step of finite pulses; delays are drawn exactly "
                          "and do not use it")
    sim.add_argument("--pulse-model", choices=["instantaneous", "finite"],
                     dest="pulse_model")
    sim.add_argument("--workers")
    sim.add_argument("--with-components", action="store_true",
                     help="append component_* columns to the analytic CSV")

    comp = subs.add_parser("components", help="filter exponents and weights")
    _add_common(comp)
    comp.add_argument("--theta-count", type=int, default=91)

    fit = subs.add_parser("fit", help="decay-envelope fit of a data file")
    _add_common(fit)
    fit.add_argument("--data", required=True)
    fit.add_argument("--model", choices=["gaussian", "exponential"],
                     default="gaussian")
    fit.add_argument("--tau-scale", type=float, default=1.0,
                     help="data file time unit in us (tau is multiplied by this)")

    scan = subs.add_parser("scan", help="(lambda, gamma) residual maps")
    _add_common(scan)
    scan.add_argument("--data", required=True, action="append")
    scan.add_argument("--tau-scale", type=float, default=1.0,
                      help="data file time unit in us (tau is multiplied by this)")
    scan.add_argument("--lambda-min", type=float, required=True)
    scan.add_argument("--lambda-max", type=float, required=True)
    scan.add_argument("--lambda-count", type=int, required=True)
    scan.add_argument("--gamma-min", type=float, required=True)
    scan.add_argument("--gamma-max", type=float, required=True)
    scan.add_argument("--gamma-count", type=int, required=True)

    sens = subs.add_parser("sensitivity", help="DC-field sensitivity report")
    _add_common(sens)
    sens.add_argument("--u", type=float, default=1.3,
                      help="bright-state mean counts per shot")
    sens.add_argument("--v", type=float, default=0.7,
                      help="dark-state mean counts per shot")
    sens.add_argument("--gamma-e", type=float,
                      default=analysis.GAMMA_E_PER_GAUSS,
                      help="gyromagnetic ratio, cycles/(us gauss)")

    bloch = subs.add_parser("bloch", help="noiseless Bloch-sphere trajectory")
    _add_common(bloch)
    bloch.add_argument("--tau", type=float, required=True)
    bloch.add_argument("--samples", type=int, default=60,
                       help="points per pulse/delay segment")

    return ap


_CFG_KEYS = {f.name for f in dataclasses.fields(RunConfig)}
# parse_args leaves the parser unchanged, so a process builds it once
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    flags = {k: v for k, v in vars(ns).items() if k in _CFG_KEYS}
    try:
        cfg = load_config(ns.config, flags)
        if ns.command == "simulate":
            return cmd_simulate(cfg, ns.with_components)
        if ns.command == "components":
            return cmd_components(cfg, ns.theta_count)
        if ns.command == "fit":
            return cmd_fit(cfg, ns.data, ns.model, ns.tau_scale)
        if ns.command == "scan":
            return cmd_scan(cfg, ns.data,
                            (ns.lambda_min, ns.lambda_max, ns.lambda_count),
                            (ns.gamma_min, ns.gamma_max, ns.gamma_count),
                            ns.tau_scale)
        if ns.command == "sensitivity":
            return cmd_sensitivity(cfg, ns.u, ns.v, ns.gamma_e)
        if ns.command == "bloch":
            return cmd_bloch(cfg, ns.tau, ns.samples)
        raise ValueError(f"unknown command {ns.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
