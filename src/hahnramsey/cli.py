"""Command-line interface.

Units at the boundary: times in microseconds, rates (lambda) in 1/us,
and frequencies (delta, gamma, rabi and the scan's gamma grid) in rad/us,
or with ``--freq-unit cycles`` in cycles/us (MHz), multiplied by 2 pi on
ingest; gamma_e stays in cycles/(us gauss).

Every input is a RunConfig field: a flag ``--<field>`` of every command,
an ``HRSIM_<FIELD>`` environment variable and a key of the JSON
``--config`` file, in that precedence over the defaults.  lam is also
``lambda`` in the file and ``HRSIM_LAMBDA``; any other file key or
``HRSIM_`` variable is bad input.  This module writes every output file,
the CSVs through ``_datafile``, and each embeds a hash of the command and
its resolved configuration; reruns with the same configuration and seed
are byte-identical.
``--workers`` is accepted for compatibility and changes nothing: every
tau point runs on the calling thread.

Exit codes: 0 success; 2 bad input, with the field or data file line
named on stderr; 3 runtime failure.  Non-finite numbers are bad input
wherever they are read.
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
from ._datafile import write_grid_csv as _write_grid_csv

ENV_PREFIX = "HRSIM_"
# bound on |float input|, and 1/MAX_MAGNITUDE on lam (so that (Gamma/lam)^2
# does not overflow) and on gamma_e
MAX_MAGNITUDE = 1e12
# bound on the points of every grid (tau, theta, bloch samples) and on the
# cells of a scan: numpy cannot allocate 1e20 of them, and a 3e4 x 3e4 scan
# would take 7 GB
MAX_COUNT = 10 ** 6
# bound on Monte Carlo work in trajectory points, about 40 s of sampling:
# an OU trajectory point of hahn_ramsey, instantaneous pulses, costs 38-45
# ns at full blocks.  Each tau point adds n_trajectories plus MC_POINT_COST
# (seeding and the sampler's fixed calls: 35-57 us, 870-1500 points); each
# noisy finite-pulse step n_trajectories (31-35 ns each) plus MC_STEP_COST
# for its 30.6 us loop pass; and each expected renewal event, lam times
# the longest sequence time, n_trajectories / 2 (20-22 ns each) plus
# MC_EVENT_COST for its 14.1-14.8 us pass of the event loop (2-core x86
# container, Python 3.11, numpy 2.4)
MAX_TRAJECTORY_POINTS = 10 ** 9
MC_POINT_COST = 2000
MC_STEP_COST = 700
MC_EVENT_COST = 350
# bound on the data rows of a file: reading 10^6 rows grew RSS by 107 MiB,
# and a one-cell scan of them by 25 MiB more (2-core x86 container)
MAX_DATA_ROWS = 10 ** 5
# bound on scan work in cells times data rows, summed over the files: about
# two minutes at the 12-17 ns a cell and row of hahn_ramsey's three windows
# at 10^5 rows (2-core x86 container, numpy 2.4)
MAX_SCAN_WORK = 8 * 10 ** 9

#: the values of each choice field, for argparse and RunConfig.validate;
#: sequence's are sorted, to read in a fixed order in --help and errors
_CHOICES = {
    "sequence": tuple(sorted(k.value for k in spincore.SequenceKind)),
    "engine": ("analytic", "montecarlo", "both"),
    "freq_unit": ("rad", "cycles"),
    "noise_kind": tuple(k.value for k in noise.NoiseKind),
    "pulse_model": ("instantaneous", "finite"),
    "model": tuple(m.value for m in analysis.FitModel),
}
#: the inputs without which a command cannot run
_REQUIRED = {
    "fit": ("data",),
    "scan": ("data", "lambda_min", "lambda_max", "lambda_count",
             "gamma_min", "gamma_max", "gamma_count"),
    "bloch": ("tau",),
}


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


def _text(x) -> str:
    """x in %g where that reads back as x, else in full."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def _check_range(field: str, value, low, high, ends: str = "[]",
                 why: str = "") -> None:
    """Refuse a value outside the interval from low to high, each end
    closed ("[", "]") or open ("(", ")"), with why appended to the
    message; an infinite high end is open, NaN lies in no interval, and
    None, an unset optional input, is not checked."""
    if value is None:
        return
    if high == math.inf:
        ends = ends[0] + ")"
    if not ((value > low if ends[0] == "(" else value >= low)
            and (value < high if ends[1] == ")" else value <= high)):
        raise ConfigError(field, f"must lie in {ends[0]}{_text(low)}, "
                                 f"{_text(high)}{ends[1]}, got {value!r}{why}")


@dataclasses.dataclass
class RunConfig:
    sequence: str = "hahn_ramsey"
    theta: float | None = None          # rad; exclusive with rabi+delta
    rabi: float | None = None
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
    # the inputs of single commands, in the order of the cmd_* functions
    with_components: bool = False
    theta_count: int = 91
    data: tuple[str, ...] = ()
    model: str = "gaussian"
    tau_scale: float = 1.0
    lambda_min: float | None = None
    lambda_max: float | None = None
    lambda_count: int | None = None
    gamma_min: float | None = None
    gamma_max: float | None = None
    gamma_count: int | None = None
    u: float = 1.3
    v: float = 0.7
    gamma_e: float = analysis.GAMMA_E_PER_GAUSS
    tau: float | None = None
    samples: int = 60

    def validate(self, command: str) -> None:
        for name, allowed in _CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(name, f"must be one of {', '.join(allowed)}, "
                                        f"got {value!r}")
        for name in _REQUIRED.get(command, ()):
            if getattr(self, name) in (None, ()):
                raise ConfigError(name, f"{command} needs a value")
        big = MAX_MAGNITUDE
        _check_range("delta", self.delta, -big, big)
        _check_range("lam", self.lam, 1 / big, big)
        _check_range("gamma", self.gamma, 0.0, big)
        _check_range("tau_start", self.tau_start, 0.0, big)
        _check_range("tau_stop", self.tau_stop, self.tau_start, big, "(]")
        _check_range("time_step", self.time_step, 0.0, big, "(]")
        _check_range("workers", self.workers, 1, math.inf)
        _check_range("seed", self.seed, 0, math.inf)
        finite = self.pulse_model == "finite"
        if finite and self.rabi is None:
            raise ConfigError("rabi", "finite pulses need a rabi frequency")
        # finite pulses of area/rabi must last a finite time
        _check_range("rabi", self.rabi, 1 / big if finite else 0.0, big,
                     "[]" if finite else "(]")
        _check_range("theta", self.theta, 0.0, math.pi / 2, "(]")
        if self.sequence == "hahn_echo":
            if self.delta != 0.0:
                raise ConfigError("delta", "hahn_echo is resonant, set delta = 0")
            if self.theta is not None and not spincore.is_resonant(self.theta):
                raise ConfigError("theta", "hahn_echo uses theta = pi/2")
        # --engine both needs a stderr for its z-scores; Monte Carlo runs
        # at most MAX_TRAJECTORY_POINTS trajectory points, so tau_count
        # leaves room for the fewest trajectories
        mc = self.engine != "analytic"
        least = 2 if self.engine == "both" else 1
        steps = events = 0
        p = self.noise_params()
        if (mc and command == "simulate" and p.gamma > 0
                and (finite or p.kind is noise.NoiseKind.RENEWAL)):
            # run_mc's plan, at the longest tau: its noisy pulse steps are
            # the same at every tau, its renewal events the most
            try:
                _, steps, events = montecarlo._plan(
                    spincore.SequenceKind(self.sequence), self.resolved_theta(),
                    self.delta, p, self.tau_stop, self.rabi if finite else None,
                    self.time_step)
            except montecarlo.PulseStepError as exc:
                raise ConfigError("rabi", f"{exc}; raise rabi or time_step") from None
            except montecarlo.RenewalEventError as exc:
                raise ConfigError("lam", f"{exc}; lower lam or tau_stop") from None
        per_trajectory = 1 + steps + events / 2
        fixed = MC_POINT_COST + steps * MC_STEP_COST + events * MC_EVENT_COST
        why = (f" (renewal noise: {events:.3g} events a trajectory at each tau "
               f"point; lower lam or tau_stop)" if events else "")
        _check_range("tau_count", self.tau_count, 2,
                     min(MAX_COUNT, int(MAX_TRAJECTORY_POINTS
                                        // (per_trajectory * least + fixed)))
                     if mc else MAX_COUNT, why=why)
        _check_range("n_trajectories", self.n_trajectories, least,
                     int((MAX_TRAJECTORY_POINTS // self.tau_count - fixed)
                         // per_trajectory)
                     if mc else math.inf, why=why)
        _check_range("theta_count", self.theta_count, 1, MAX_COUNT)
        if command == "fit" and len(self.data) > 1:
            raise ConfigError("data", f"fit reads one data file, got {len(self.data)}")
        _check_range("tau_scale", self.tau_scale, 0.0, math.inf, "()")
        for name, low in (("lambda", 1 / big), ("gamma", 0.0)):
            for end in ("min", "max"):
                _check_range(f"{name}_{end}", getattr(self, f"{name}_{end}"),
                             low, big)
            _check_range(f"{name}_count", getattr(self, f"{name}_count"), 1, MAX_COUNT)
        if None not in (self.lambda_count, self.gamma_count):
            _check_range("lambda_count, gamma_count",
                         self.lambda_count * self.gamma_count, 1, MAX_COUNT)
        # within these bounds, and gamma's for sensitivity, the field floor
        # and eta stay finite and nonzero: u / 2 does not underflow, nor gamma^2
        _check_range("u", self.u, 1 / big, big)
        _check_range("v", self.v, 0.0, big)
        _check_range("u", self.u, self.v, big, "(]")   # bright above dark
        _check_range("gamma_e", self.gamma_e, 1 / big, big)
        if command == "sensitivity":
            _check_range("gamma", self.noise_params().gamma, 1 / big, big)
        # renewal noise shares the OU second moments but not the Gaussian
        # averaging behind every closed form, so those are no model for it
        if self.noise_kind == "renewal" and (
                command in ("scan", "sensitivity")
                or command == "simulate" and self.engine == "analytic"):
            raise ConfigError("noise_kind", f"the closed forms of {command} assume "
                                            f"Gaussian (ou) noise, not renewal noise")
        _check_range("tau", self.tau, 0.0, big)
        _check_range("samples", self.samples, 1, MAX_COUNT)

    def resolved_theta(self) -> float:
        if self.sequence == "hahn_echo":
            return math.pi / 2
        if self.theta is not None:
            return self.theta
        if self.rabi is not None:
            return spincore.tilt_angle(self.rabi, self.delta)
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


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}
# converted under --freq-unit cycles
_FREQ_FIELDS = ("delta", "gamma", "rabi", "gamma_min", "gamma_max")
_BOOLS = {"true": True, "1": True, "false": False, "0": False}
_HELP = {
    "theta": "tilt angle in rad",
    "lam": "noise correlation rate (1/us)",
    "time_step": "step of finite pulses; delays are drawn exactly and do not use it",
    "with_components": "append component_* columns to the analytic CSV",
    "data": "data file, tau,signal[,stderr]; scan takes several",
    "tau_scale": "data file time unit in us (tau is multiplied by this)",
    "u": "bright-state mean counts per shot",
    "v": "dark-state mean counts per shot",
    "gamma_e": "gyromagnetic ratio, cycles/(us gauss)",
    "samples": "points per pulse/delay segment",
    "workers": "accepted for compatibility; every tau point runs on the "
               "calling thread, so the value changes nothing",
}


def _parse(field: dataclasses.Field, value):
    """value as its field's annotation reads (a string, by the __future__
    import): float, int, bool, a tuple of paths (from one path or a
    list) or str; None only where the annotation allows it."""
    kind = field.type.removesuffix(" | None")
    if value is None and kind != field.type:
        return None
    if kind == "float":
        return float(value)
    if kind == "int":
        if isinstance(value, float) and not value.is_integer():
            raise ValueError   # int() truncates 2.7 and overflows on inf
        return int(value)
    if kind == "bool":
        return _BOOLS[str(value).lower()]
    if kind == "tuple[str, ...]":
        return tuple(map(str, [value] if isinstance(value, str) else value))
    return str(value)


#: the one other name of a field, in a config file and the environment
_ALIASES = {"lambda": "lam"}
#: the environment variable of each field and alias, and that name
_ENV_NAMES = {ENV_PREFIX + name.upper(): name for name in [*_FIELDS, *_ALIASES]}


def _fields_of(source) -> dict:
    """{field: value} of the (name, key, value) entries of one input
    source.  Each key, through _ALIASES, must be a field that no earlier
    entry set; an entry that breaks this is refused by its name."""
    values, names = {}, {}
    for name, key, val in source:
        field = _ALIASES.get(key, key)
        if field not in _FIELDS:
            raise ConfigError(name, "unknown configuration key")
        if field in names:
            raise ConfigError(name, f"sets {field}, as {names[field]} does")
        values[field], names[field] = val, name
    return values


def load_config(path: str | None, flags: dict, command: str) -> RunConfig:
    """The RunConfig of the flags, then every HRSIM_ environment variable,
    then the config file at path, then the defaults, validated for the
    command.  A file key and a variable are read through one rule: each
    names a field or its alias, and any other is bad input."""
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
        values = _fields_of((key, key, val) for key, val in raw.items())
    # the names first, so that only HRSIM_ values are read and decoded
    env = os.environ
    values.update(_fields_of((name, _ENV_NAMES.get(name, name), env[name])
                             for name in env if name.startswith(ENV_PREFIX)))
    values.update((key, val) for key, val in flags.items() if val is not None)

    cfg = RunConfig()
    for key, val in values.items():
        try:
            val = _parse(_FIELDS[key], val)
        except (KeyError, TypeError, ValueError):
            raise ConfigError(key, f"cannot parse value {val!r}")
        setattr(cfg, key, val)
    if cfg.freq_unit == "cycles":
        for name in _FREQ_FIELDS:
            v = getattr(cfg, name)
            if v is not None:
                setattr(cfg, name, 2 * math.pi * v)
        cfg.freq_unit = "rad"   # record post-conversion state
    cfg.validate(command)
    return cfg


def config_hash(cfg: RunConfig, command: str) -> str:
    """Hash of the command and its resolved inputs, each data file by the
    sha256 of its bytes (one it cannot read is a bad data field); placement
    (out, data paths), workers (accepted, with no effect) and, unless
    pulses are finite, time_step do not change the result bytes and are
    excluded.  The tilt law was once a field; its one value stays in the
    hash, so stamps keep their values."""
    d = {k: getattr(cfg, k) for k in _FIELDS if k not in ("out", "data", "workers")}
    d["tilt_convention"] = "geometric"
    try:
        sums = [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in cfg.data]
    except OSError as exc:
        raise ConfigError("data", f"cannot read {exc.filename}: {exc.strerror}") from None
    if sums:   # runs without data keep their stamps
        d["data"] = sums
    if cfg.pulse_model != "finite":
        del d["time_step"]
    blob = json.dumps({"command": command, **d}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def read_curve_csv(path, tau_scale: float = 1.0):
    """(taus, signal, stderrs) of a tau,signal[,stderr] (or
    tau,mean,stderr,n) data file, as arrays; stderrs is None without a
    stderr column.  An n cell must be an integer, and is not kept.

    tau_scale > 0 converts the file's declared time unit to the working
    unit (microseconds): stored tau = file tau * tau_scale.  A row with
    fewer cells than the header, one that does not parse, holds a
    non-finite value, a negative stderr, a stored tau below 0 or one over
    MAX_MAGNITUDE raises ConfigError naming the file and line, and so
    does a row past MAX_DATA_ROWS.
    """
    taus, means, errs = [], [], []

    def bad_row(what):
        # the file and line are formatted only for a row that is refused
        return ConfigError("data", f"{path} line {lineno}: {what}")

    with open(path) as fh:
        header = None
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = [c.strip().lower() for c in line.split(",")]
                width = 3 if header[2:3] == ["stderr"] else 2
                continue
            if len(taus) == MAX_DATA_ROWS:
                raise bad_row(f"more than {MAX_DATA_ROWS} data rows")
            cells = line.split(",")
            if len(cells) < len(header):
                raise bad_row(f"the header has {len(header)} columns, got {line!r}")
            try:
                row = [float(c) for c in cells[:width]]
                if len(cells) > 3 and header[-1] == "n":
                    int(cells[3])
            except ValueError:
                raise bad_row(f"cannot parse {line!r}") from None
            row[0] *= tau_scale
            if len(row) < 2 or not (all(map(math.isfinite, row))
                                    and 0 <= row[0] <= MAX_MAGNITUDE
                                    and min(row[2:], default=0.0) >= 0):
                raise bad_row(f"need finite cells, 0 <= tau <= {MAX_MAGNITUDE:g} after "
                              f"scaling and a stderr >= 0, got {line!r}")
            taus.append(row[0])
            means.append(row[1])
            errs.extend(row[2:])
    if header is None or len(taus) == 0:
        raise ConfigError("data", f"no data rows in {path}")
    return np.asarray(taus), np.asarray(means), np.asarray(errs) if errs else None


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(cfg: RunConfig, stamp: str) -> int:
    """signal curves per engine"""
    theta = (cfg.closed_form_theta() if cfg.engine in ("analytic", "both")
             else cfg.resolved_theta())
    if cfg.with_components and cfg.sequence != "hahn_ramsey":
        raise ConfigError("sequence",
                          "component columns exist only for hahn_ramsey")
    taus = cfg.taus()
    kind = spincore.SequenceKind(cfg.sequence)
    an = mc = None
    if cfg.engine in ("analytic", "both"):
        an = analytic.closed_form_signal(kind, theta, cfg.delta,
                                         cfg.noise_params(), taus)
    if cfg.engine in ("montecarlo", "both"):
        mc = montecarlo.run_mc(kind, theta, cfg.delta, cfg.noise_params(), taus,
                               cfg.n_trajectories, cfg.seed,
                               cfg.rabi if cfg.pulse_model == "finite" else None,
                               cfg.time_step)
    out = _out_dir(cfg)
    comment = f"config_sha256={stamp}"
    wrote = []
    if an is not None:
        path = out / f"{cfg.sequence}_analytic.csv"
        header, rows = "tau,signal", np.column_stack([taus, an])
        if cfg.with_components:
            header += "".join(f",component_{n}" for n in
                              ("constant", "ramsey_like", "cos_delta", "cos_2delta"))
            terms = analytic._detuned_echo_terms(
                theta, cfg.delta, noise.filter_exponents(cfg.noise_params(), taus),
                taus, 0.0)
            rows = np.column_stack([taus, an, *np.broadcast_arrays(*terms)])
        _write_csv(path, header, rows, [comment])
        wrote.append(path)
    if mc is not None:
        means, s, warnings = mc
        path = out / f"{cfg.sequence}_montecarlo.csv"
        _write_csv(path, "tau,mean,stderr,n",
                   np.column_stack([taus, means, s,
                                    np.full(taus.size, cfg.n_trajectories)]),
                   [comment] + [f"warning: {w}" for w in warnings])
        wrote.append(path)
    if cfg.engine == "both":
        path = out / f"{cfg.sequence}_compare.csv"
        off = means - an
        z = np.divide(off, s, out=np.where(np.abs(off) < 1e-12, 0.0, math.inf),
                      where=s > 0)
        rows = np.column_stack([taus, an, means, s, z])
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


def cmd_components(cfg: RunConfig, stamp: str) -> int:
    """filter exponents and weights"""
    taus, p = cfg.taus(), cfg.noise_params()
    rows = np.column_stack([taus, *noise.filter_exponents(p, taus)])
    out = _out_dir(cfg)
    comments = [f"config_sha256={stamp}"]
    path1 = out / "filter_exponents.csv"
    _write_csv(path1, "tau," + ",".join(k.value for k in noise.FilterKind), rows,
               comments)
    path2 = out / "component_weights.csv"
    thetas = np.linspace(1e-3, math.pi / 2, cfg.theta_count)
    _write_csv(path2, "theta,constant,ramsey_like,cos_delta,cos_2delta",
               [(th, *analytic.component_weights(th)) for th in thetas.tolist()], comments)
    print(path1)
    print(path2)
    return 0


def cmd_fit(cfg: RunConfig, stamp: str) -> int:
    """decay-envelope fit of a data file"""
    # the fit runs in the file's own time unit, so the solver and its
    # covariance never see the scale; the time-valued results convert after
    (data_path,), tau_scale = cfg.data, cfg.tau_scale
    taus, signal, stderrs = read_curve_csv(data_path)
    try:
        fit = analysis.fit_decay(taus, signal, stderrs, analysis.FitModel(cfg.model))
    except analysis.FitInputError as exc:
        raise ConfigError("data", f"{data_path}: {exc}") from None
    scaled = {"tau_c": fit.tau_c * tau_scale, "tau_c_err": fit.tau_c_err * tau_scale,
              "frequency": fit.frequency / tau_scale}
    if not all(map(math.isfinite, scaled.values())):
        raise ConfigError("tau_scale", f"{tau_scale:g} takes the fitted tau_c, "
                                       f"tau_c_err or frequency out of float range")
    return _write_json(cfg, f"fit_{Path(data_path).stem}.json",
                       {"config_sha256": stamp, "model": cfg.model, "data": data_path,
                        **fit.to_dict(), **scaled,
                        **({"warnings": list(fit.warnings)} if fit.warnings else {})})


def _write_json(cfg: RunConfig, name: str, payload: dict) -> int:
    """Write the report to the output directory and echo it."""
    path = _out_dir(cfg) / name
    text = json.dumps(payload, indent=2, sort_keys=True)
    path.write_text(text + "\n")
    print(text)
    print(path)
    return 0


def cmd_scan(cfg: RunConfig, stamp: str) -> int:
    """(lambda, gamma) residual maps"""
    stems = [Path(dp).stem for dp in cfg.data]
    for stem in stems:
        if stems.count(stem) > 1:
            raise ConfigError("data", f"{stems.count(stem)} files would write "
                                      f"scan_{stem}.csv")
    lam_grid = np.linspace(cfg.lambda_min, cfg.lambda_max, cfg.lambda_count)
    gamma_grid = np.linspace(cfg.gamma_min, cfg.gamma_max, cfg.gamma_count)
    theta = cfg.closed_form_theta()
    curves = [read_curve_csv(dp, cfg.tau_scale) for dp in cfg.data]
    rows = sum(taus.size for taus, _, _ in curves)
    if lam_grid.size * gamma_grid.size * rows > MAX_SCAN_WORK:
        raise ConfigError("lambda_count, gamma_count",
                          f"{lam_grid.size} x {gamma_grid.size} cells over {rows} "
                          f"data rows exceed {_text(MAX_SCAN_WORK)} cells x rows")
    out = _out_dir(cfg)
    comment = f"config_sha256={stamp}"
    kind = spincore.SequenceKind(cfg.sequence)
    for stem, (taus, signal, _) in zip(stems, curves):
        m = analysis.scan_noise_params(taus, signal, kind, theta, cfg.delta,
                                       lam_grid, gamma_grid)
        path = out / f"scan_{stem}.csv"
        _write_grid_csv(path, "lambda,gamma,residual", lam_grid, gamma_grid,
                        m.residuals, [comment])
        print(f"{path} argmin lambda={m.best[0]:.6g} gamma={m.best[1]:.6g}")
    return 0


def cmd_sensitivity(cfg: RunConfig, stamp: str) -> int:
    """DC-field sensitivity report"""
    if cfg.sequence != "hahn_ramsey":
        raise ConfigError("sequence", "the sensitivity model is the detuned "
                                      "echo's: only hahn_ramsey has it")
    readout = analysis.ReadoutModel(cfg.u, cfg.v)
    theta = None
    tilt_name = "theta" if cfg.theta is not None else "rabi"
    if cfg.theta is not None or cfg.rabi is not None:
        theta = cfg.resolved_theta()
        if spincore.is_resonant(theta):
            # the bias slope carries cos^3 theta: about 1e-32 at pi/2
            raise ConfigError(tilt_name, "a resonant tilt (pi/2) has no bias "
                                         "slope to sense a field with")
    try:
        res = analysis.sensitivity(cfg.noise_params(), readout, theta, cfg.gamma_e)
    except analysis.FitInputError as exc:
        # below a tilt of about 3e-7 the fringe has no contrast left to fit
        raise ConfigError(tilt_name,
                          f"the tilt leaves the fringe flat: {exc}") from None
    return _write_json(cfg, "sensitivity.json", {
        "config_sha256": stamp, "delta_b_min_gauss": res.delta_b_min,
        "optimal_tau": res.optimal_tau, "optimal_theta_rad": res.optimal_theta,
        "eta": res.eta, "t2": res.t2, "gamma_e": cfg.gamma_e, "u": cfg.u, "v": cfg.v})


def cmd_bloch(cfg: RunConfig, stamp: str) -> int:
    """noiseless Bloch-sphere trajectory"""
    out = _out_dir(cfg)
    path = out / f"bloch_{cfg.sequence}.csv"
    _write_csv(path, "t,x,y,z",
               montecarlo._bloch_path(spincore.SequenceKind(cfg.sequence),
                                      cfg.resolved_theta(), cfg.delta, cfg.tau,
                                      cfg.samples), [f"config_sha256={stamp}"])
    print(path)
    return 0


# argparse actions by annotation; every other flag takes its value as a
# string for load_config to parse, as from the environment and files
_ACTIONS = {"bool": {"action": "store_const", "const": True},
            "tuple[str, ...]": {"action": "append"}}


def build_parser() -> argparse.ArgumentParser:
    """Every command takes --config and one --<field> flag per field."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    for field in _FIELDS.values():
        action = _ACTIONS.get(field.type, {"choices": _CHOICES.get(field.name)})
        common.add_argument("--" + field.name.replace("_", "-"), dest=field.name,
                            help=_HELP.get(field.name), **action)
    ap = argparse.ArgumentParser(
        prog="hahnramsey",
        description="Detuned spin-echo dephasing simulations and analysis "
                    "(times in us, frequencies in rad/us unless --freq-unit cycles)")
    subs = ap.add_subparsers(dest="command", required=True)
    for name, cmd in list(globals().items()):
        if name.startswith("cmd_"):
            subs.add_parser(name[4:], help=cmd.__doc__, parents=[common])
    return ap


# parse_args leaves the parser unchanged, so a process builds it once
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    flags = vars(_parser().parse_args(argv))
    command, path = flags.pop("command"), flags.pop("config")
    try:
        cfg = load_config(path, flags, command)
        # looked up at each call, so that a wrapper set on a cmd_* function
        # after the parser was built runs
        return globals()[f"cmd_{command}"](cfg, config_hash(cfg, command))
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
