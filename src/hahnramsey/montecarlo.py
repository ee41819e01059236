"""Stochastic validation engine: propagates the spin through pulse
sequences over sampled noise trajectories and estimates the signal with
standard errors.  Independent of the closed forms in `analytic`, which
is the point: agreement between the two is the end-to-end check of the
Gaussian averaging behind every decay law.

One function, run_mc, serves both pulse models of McConfig.pulse_model:
instantaneous pulses (tilted-axis rotations that take no time, applied
to the real Bloch vector: one 3x3 rotation per pulse and one cos/sin
pair per delay) and finite pulses (the spinor is stepped through each
pulse while the noise keeps running).  Both share the seeding, block
reduction and worker fan-out below; only the per-block sampler differs.

Reproducibility scheme
----------------------
Trajectories are processed in fixed blocks of BLOCK_SIZE; the random
stream of block b at tau-point i is seeded by
``SeedSequence(master_seed, spawn_key=(i, b))``.  Block results are
reduced in ascending block order.  The estimate is therefore bitwise
identical for a given master seed at any worker count, for either
pulse model, since neither stream layout nor summation order depends
on scheduling.  Within a tau-point, per-trajectory sigma_z values are
summed with numpy's pairwise summation over each block.

The phase integral of every delay is drawn exactly, for both noise
kinds and both pulse models, from the window kernels in `noise`: two
normals per delay for OU noise, event-driven for renewal noise.
time_step only sets the grid on which finite pulses are stepped.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._datafile import write_csv as _write_csv
from .noise import _WINDOW_INTEGRALS, NoiseKind, NoiseParams
from .spincore import (Delay, PulseParams, PulseSequence, SequenceKind,
                       SPIN_UP, build_sequence)

__all__ = ["McConfig", "SignalCurve", "BlochPoint", "run_mc",
           "bloch_trajectory", "bloch_to_csv", "BLOCK_SIZE",
           "MAX_PULSE_STEPS", "PulseStepError", "MAX_RENEWAL_EVENTS",
           "RenewalEventError"]

BLOCK_SIZE = 8192
#: bound on the noisy finite-pulse steps of one trajectory; each step is a
#: pass of the Python loop in _finite_block_samples
MAX_PULSE_STEPS = 10 ** 5
#: bound on the expected renewal events of one trajectory, lam times the
#: sequence time; each event is a pass of the event loop in
#: noise._renewal_window_integrals
MAX_RENEWAL_EVENTS = 10 ** 5


class PulseStepError(ValueError):
    """Finite pulses that would need more than MAX_PULSE_STEPS noisy steps
    per trajectory (pulses too long for the step grid: rabi too small)."""


class RenewalEventError(ValueError):
    """Renewal noise with more than MAX_RENEWAL_EVENTS expected events per
    trajectory (lam times the longest sequence too large)."""


@dataclass(frozen=True)
class McConfig:
    n_trajectories: int
    master_seed: int = 12345
    time_step: float = 0.01
    pulse_model: str = "instantaneous"   # or "finite"
    rabi: float | None = None            # required for finite pulses
    workers: int = 1

    def __post_init__(self):
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        if not self.time_step > 0:
            raise ValueError("time_step must be > 0")
        if self.pulse_model not in ("instantaneous", "finite"):
            raise ValueError("pulse_model must be 'instantaneous' or 'finite'")
        if self.pulse_model == "finite" and not (self.rabi and self.rabi > 0):
            raise ValueError("finite pulses need rabi > 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class SignalCurve:
    """Sampled signal estimates; stderr is zero wherever the estimate is
    deterministic (no noise)."""

    taus: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    n: int
    kind: SequenceKind | None = None
    warnings: tuple = ()

    def to_csv(self, path, header_comment: str | None = None) -> None:
        comments = [header_comment] if header_comment else []
        _write_csv(path, "tau,mean,stderr,n",
                   ((*row, self.n) for row in zip(self.taus, self.means, self.stderrs)),
                   comments + [f"warning: {w}" for w in self.warnings])


@dataclass(frozen=True)
class BlochPoint:
    t: float
    x: float
    y: float
    z: float


def _validate(theta, delta, noise, taus):
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("taus must be a non-empty 1-d array")
    vals = [theta, delta, noise.lam, noise.gamma]
    if not np.isfinite(taus).all() or not np.all(np.isfinite(vals)):
        raise ValueError("non-finite simulation parameter")
    if (taus < 0).any():
        raise ValueError("taus must be >= 0")
    return taus


def _pulse_axis(p: PulseParams) -> np.ndarray:
    """Rotation axis n = (sin th, 0, cos th) of a tilted-axis pulse,
    th = detuning_sign * theta."""
    th = p.detuning_sign * p.theta
    return np.array([math.sin(th), 0.0, math.cos(th)])


def _bloch_rotation(p: PulseParams) -> np.ndarray:
    """SO(3) matrix of a tilted-axis pulse: the rotation by beta about
    n = _pulse_axis(p), by Rodrigues' formula
    n n^T + cos(beta) (I - n n^T) + sin(beta) [n]x.  It is the Bloch-vector
    image of spincore.rotation_matrix(p)."""
    n = _pulse_axis(p)
    along = np.outer(n, n)
    cross = np.cross(n, np.eye(3)).T      # [n]x: cross @ v = n x v
    return (along + math.cos(p.beta) * (np.eye(3) - along)
            + math.sin(p.beta) * cross)


def _instantaneous_sampler(seq, delta, noise, cfg):
    """sample(rng, m): sigma_z of m trajectories with instantaneous
    pulses; rng None means noiseless.

    The state is carried as the real Bloch vector (x, y, z), starting as
    the scalars (0, 0, 1): each pulse is one 3x3 rotation (_bloch_rotation)
    and each delay the z rotation by its phase, one cos/sin pair.
    """
    ops = [el if isinstance(el, Delay) else _bloch_rotation(el).tolist()
           for el in seq.elements]
    durations = [d.duration for d in seq.delays]
    window_integrals = _WINDOW_INTEGRALS.get(noise.kind)

    def sample(rng, m):
        if rng is None:
            phases = np.zeros((len(durations), m))
        else:
            f0 = rng.normal(0.0, noise.gamma, m)
            phases = window_integrals(rng, f0, noise.lam, noise.gamma,
                                      durations)[1]
        x, y, z = 0.0, 0.0, 1.0
        rows = iter(phases)
        for op in ops:
            if isinstance(op, Delay):
                phi = op.detuning_sign * delta * op.duration + next(rows)
                c, s = np.cos(phi), np.sin(phi)
                x, y = x * c - y * s, x * s + y * c
            else:
                x, y, z = [r[0] * x + r[1] * y + r[2] * z for r in op]
        return z

    return sample


def _point_estimate(sample, noisy, cfg, point_idx):
    """Mean and standard error at one tau-point, blocks seeded and reduced
    as in the module docstring; a noiseless point is one exact sample."""
    if not noisy:
        return float(sample(None, 1)[0]), 0.0
    n = cfg.n_trajectories
    total = 0.0
    total_sq = 0.0
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    for b in range(n_blocks):
        m = min(BLOCK_SIZE, n - b * BLOCK_SIZE)
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.master_seed, spawn_key=(point_idx, b)))
        sz = sample(rng, m)
        total += float(sz.sum())
        total_sq += float((sz * sz).sum())
    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / max(1, n - 1))
    return mean, math.sqrt(var / n)


def run_mc(seq_kind: SequenceKind, theta: float, delta: float,
           noise: NoiseParams, taus, cfg: McConfig) -> SignalCurve:
    """Monte Carlo estimate of <sigma_z> per tau under cfg.pulse_model.

    Finite pulses evolve under ((det + f(t))/2) sigma_z + (rabi/2) sigma_x,
    stepped with piecewise-constant matrix exponentials on the time_step
    grid, and the noise runs continuously through pulses and delays.
    Raises PulseStepError when a trajectory would take over
    MAX_PULSE_STEPS noisy pulse steps, and RenewalEventError when it would
    expect over MAX_RENEWAL_EVENTS renewal events.  Deterministic for a fixed
    master_seed at any cfg.workers; see the module docstring for the
    seeding scheme.
    """
    taus = _validate(theta, delta, noise, taus)
    seqs = [build_sequence(seq_kind, theta, delta, float(t)) for t in taus]
    finite = cfg.pulse_model == "finite"
    make_sampler = _finite_sampler if finite else _instantaneous_sampler
    noisy = noise.gamma > 0.0
    warnings = []
    windows = _finite_windows(seqs[0], delta, cfg.rabi) if finite else []
    if noisy and noise.kind is NoiseKind.RENEWAL:
        span = (max(sum(d.duration for d in s.delays) for s in seqs)
                + sum(w[1] for w in windows if w[0] == "pulse"))
        if noise.lam * span > MAX_RENEWAL_EVENTS:
            raise RenewalEventError(
                f"renewal noise expects lam * {span:.3g} = {noise.lam * span:.3g} "
                f"events per trajectory, over {MAX_RENEWAL_EVENTS}")
    if finite:
        if noisy:
            steps = sum(_pulse_steps(w[1], noise.lam, cfg.time_step)
                        for w in windows if w[0] == "pulse")
            if steps > MAX_PULSE_STEPS:
                raise PulseStepError(
                    f"finite pulses need {steps:.3g} noisy steps per trajectory "
                    f"(pulse time / min(time_step, 0.05/lam)), over "
                    f"{MAX_PULSE_STEPS}")
        for w in windows:
            if w[0] == "pulse" and w[1] / cfg.time_step < 10:
                warnings.append(
                    f"pulse of duration {w[1]:.3g} resolved by fewer than 10 "
                    f"steps of {cfg.time_step:.3g}")
                break
    means = np.empty(taus.size)
    errs = np.empty(taus.size)

    def work(i):
        sample = make_sampler(seqs[i], delta, noise, cfg)
        means[i], errs[i] = _point_estimate(sample, noisy, cfg, i)

    if cfg.workers == 1:
        for i in range(taus.size):
            work(i)
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            list(pool.map(work, range(taus.size)))
    return SignalCurve(taus, means, errs, cfg.n_trajectories, seq_kind,
                       tuple(warnings))


# ---------------------------------------------------------------------------
# finite-duration pulses


def _finite_windows(seq: PulseSequence, delta: float, rabi: float):
    """Timeline of (kind, duration, sigma_z rate, sigma_x rate) windows.

    Pulses realize the requested tilt exactly: the drive detuning is
    rabi/tan(theta) (mirrored for detuning_sign -1) and the duration is
    area/effective_rabi.  Delays keep the instantaneous-pulse phase
    convention sign*delta, each window expressed in its own drive frame.
    """
    windows = []
    for el in seq.elements:
        if isinstance(el, Delay):
            windows.append(("delay", el.duration, el.detuning_sign * delta, 0.0))
        else:
            det = rabi / math.tan(el.theta) if el.theta < math.pi / 2 else 0.0
            w1 = math.hypot(rabi, det)
            windows.append(("pulse", el.beta / w1, el.detuning_sign * det, rabi))
    return windows


def _pulse_steps(duration, lam, time_step):
    """Steps of a noisy pulse: the time_step grid, refined to resolve the
    noise correlation time 1/lam."""
    return max(1, math.ceil(duration / min(time_step, 0.05 / lam)))


def _finite_sampler(seq, delta, noise, cfg):
    """sample(rng, m) with finite pulses; see _finite_block_samples."""
    return functools.partial(_finite_block_samples,
                             _finite_windows(seq, delta, cfg.rabi), noise, cfg)


def _finite_block_samples(windows, noise, cfg, rng, m):
    """sigma_z of m trajectories through the finite-pulse window
    timeline; rng None means noiseless.

    Each window is cut into steps: one for a delay or a noiseless pulse,
    the time_step grid for a noisy pulse.  A step draws the mean of f over
    it from the exact window kernel of the noise kind and applies the
    rotation of its constant generator.
    """
    lam, gamma = noise.lam, noise.gamma
    noisy = gamma > 0.0 and rng is not None
    window_integrals = _WINDOW_INTEGRALS.get(noise.kind)
    f = rng.normal(0.0, gamma, m) if noisy else None
    psi = np.tile(SPIN_UP, (m, 1))
    for kind, dur, nz_rate, nx_rate in windows:
        if dur == 0.0:
            continue
        steps = 1
        if noisy and kind == "pulse":
            steps = _pulse_steps(dur, lam, cfg.time_step)
        h = dur / steps
        for _ in range(steps):
            nz = nz_rate
            if noisy:
                f, x = window_integrals(rng, f, lam, gamma, [h])
                nz = nz_rate + x[0] / h
            w = np.sqrt(nz * nz + nx_rate * nx_rate)
            ang = w * h
            c = np.cos(ang / 2)
            s = np.where(w > 0, np.sin(ang / 2) / np.maximum(w, 1e-300), 0.5 * h)
            a0 = (c - 1j * s * nz) * psi[:, 0] - 1j * s * nx_rate * psi[:, 1]
            a1 = -1j * s * nx_rate * psi[:, 0] + (c + 1j * s * nz) * psi[:, 1]
            psi[:, 0], psi[:, 1] = a0, a1
    return (np.abs(psi[:, 0]) ** 2 - np.abs(psi[:, 1]) ** 2).real


# ---------------------------------------------------------------------------
# noiseless Bloch-sphere trajectories


def bloch_trajectory(seq_kind: SequenceKind, theta: float, delta: float,
                     tau: float, samples_per_segment: int = 60) -> list:
    """Noiseless (x, y, z) path of the pure state along the sequence.

    Pulses are swept as continuous rotations about their tilted axes but
    advance no time (instantaneous-pulse model); delays advance t.  Each
    segment's samples are one array expression on the Bloch vector: a
    pulse applies Rodrigues' rotation (as in _bloch_rotation) by its
    partial areas, a delay the z rotations by its partial phases.
    """
    if samples_per_segment < 1:
        raise ValueError("samples_per_segment must be >= 1")
    seq = build_sequence(seq_kind, theta, delta, tau)
    frac = np.arange(1, samples_per_segment + 1)
    xyz = np.array([[0.0, 0.0, 1.0]])
    t = 0.0
    ts, paths = [np.zeros(1)], [xyz]
    for el in seq.elements:
        start = xyz[-1]
        if isinstance(el, PulseParams):
            n = _pulse_axis(el)
            along = (n @ start) * n
            angle = (el.beta * frac / samples_per_segment)[:, None]
            xyz = (along + np.cos(angle) * (start - along)
                   + np.sin(angle) * np.cross(n, start))
            ts.append(np.full(samples_per_segment, t))
        else:
            dt = el.duration * frac / samples_per_segment
            phi = el.detuning_sign * delta * dt
            c, s = np.cos(phi), np.sin(phi)
            x, y, z = start
            xyz = np.stack([x * c - y * s, x * s + y * c,
                            np.full(samples_per_segment, z)], axis=1)
            ts.append(t + dt)
            t += el.duration
        paths.append(xyz)
    cols = (np.concatenate(ts), *np.concatenate(paths).T)
    return [BlochPoint(*p) for p in zip(*(c.tolist() for c in cols))]


def bloch_to_csv(points, path, header_comment: str | None = None) -> None:
    _write_csv(path, "t,x,y,z", ((p.t, p.x, p.y, p.z) for p in points),
               [header_comment] if header_comment else [])
