"""Stochastic validation engine: propagates the spin through pulse
sequences over sampled noise trajectories and estimates the signal with
standard errors.  Independent of the closed forms in `analytic`, which
is the point: agreement between the two is the end-to-end check of the
Gaussian averaging behind every decay law.

One function, run_mc, serves both pulse models of McConfig.pulse_model:
instantaneous pulses (tilted-axis rotations that take no time) and
finite pulses (the spin is stepped through each pulse while the noise
keeps running).  Both share the seeding, block reduction and worker
fan-out below; only the per-block sampler differs.

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

Delays use a uniform grid with step min(time_step, 0.05/lambda); the
trapezoidal OU phase integral then carries an O(step^2) bias well below
the statistical error at the trajectory counts used here.  Renewal
phase integrals are event-driven and exact.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .noise import NoiseKind, NoiseParams
from .spincore import (Delay, PulseParams, PulseSequence, SequenceKind,
                       SPIN_UP, build_sequence, rotation_matrix)

__all__ = ["McConfig", "SignalCurve", "BlochPoint", "run_mc",
           "bloch_trajectory", "bloch_to_csv", "BLOCK_SIZE"]

BLOCK_SIZE = 8192


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
        with open(path, "w") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            for w in self.warnings:
                fh.write(f"# warning: {w}\n")
            fh.write("tau,mean,stderr,n\n")
            for t, m, s in zip(self.taus, self.means, self.stderrs):
                fh.write(f"{t:.17g},{m:.17g},{s:.17g},{self.n}\n")


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


def _ou_segment_integrals(rng, n, lam, gamma, durations, max_step):
    """Trapezoidal phase integrals of an exact-kernel OU chain over
    consecutive windows; returns shape (len(durations), n)."""
    f = rng.normal(0.0, gamma, n)
    out = np.zeros((len(durations), n))
    for j, dur in enumerate(durations):
        if dur == 0.0:
            continue
        steps = max(1, int(np.ceil(dur / max_step)))
        h = dur / steps
        decay = math.exp(-lam * h)
        sd = gamma * math.sqrt(max(0.0, 1.0 - decay * decay))
        acc = np.zeros(n)
        for _ in range(steps):
            fn = f * decay + rng.normal(0.0, sd, n)
            acc += f
            acc += fn
            f = fn
        out[j] = 0.5 * h * acc
    return out


def _renewal_segment_integrals(rng, n, lam, gamma, durations):
    """Exact piecewise-constant phase integrals over consecutive windows."""
    edges = np.concatenate([[0.0], np.cumsum(durations)])
    total = edges[-1]
    out = np.zeros((len(durations), n))
    if total == 0.0:
        return out
    t = np.zeros(n)
    val = rng.normal(0.0, gamma, n)
    while (t < total).any():
        t_next = np.minimum(t + rng.exponential(1.0 / lam, n), total)
        for j in range(len(durations)):
            lo = np.maximum(t, edges[j])
            hi = np.minimum(t_next, edges[j + 1])
            out[j] += val * np.clip(hi - lo, 0.0, None)
        val = np.where(t_next < total, rng.normal(0.0, gamma, n), val)
        t = t_next
    return out


def _propagate_block(ops, delta, phase_noise):
    """sigma_z per trajectory for one block; phase_noise has one row per
    delay."""
    n = phase_noise.shape[1] if phase_noise.size else 1
    psi = np.tile(SPIN_UP, (n, 1))
    d_idx = 0
    for kind, payload in ops:
        if kind == "pulse":
            psi = psi @ payload.T
        else:  # delay: payload = (duration, sign)
            dur, sign = payload
            phi = sign * delta * dur + phase_noise[d_idx]
            d_idx += 1
            psi[:, 0] *= np.exp(-0.5j * phi)
            psi[:, 1] *= np.exp(+0.5j * phi)
    return (np.abs(psi[:, 0]) ** 2 - np.abs(psi[:, 1]) ** 2).real


def _ops_for(seq: PulseSequence):
    ops = []
    for el in seq.elements:
        if isinstance(el, PulseParams):
            ops.append(("pulse", rotation_matrix(el)))
        else:
            ops.append(("delay", (el.duration, el.detuning_sign)))
    return ops


def _instantaneous_sampler(seq, delta, noise, cfg):
    """sample(rng, m): sigma_z of m trajectories with instantaneous
    pulses; rng None means noiseless."""
    ops = _ops_for(seq)
    durations = [d.duration for d in seq.delays]
    max_step = min(cfg.time_step, 0.05 / noise.lam)

    def sample(rng, m):
        if rng is None:
            x = np.zeros((len(durations), m))
        elif noise.kind is NoiseKind.ORNSTEIN_UHLENBECK:
            x = _ou_segment_integrals(rng, m, noise.lam, noise.gamma,
                                      durations, max_step)
        else:
            x = _renewal_segment_integrals(rng, m, noise.lam, noise.gamma,
                                           durations)
        return _propagate_block(ops, delta, x)

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
    grid, and the noise runs continuously through them.  Deterministic
    for a fixed master_seed at any cfg.workers; see the module docstring
    for the seeding scheme.
    """
    taus = _validate(theta, delta, noise, taus)
    seqs = [build_sequence(seq_kind, theta, delta, float(t)) for t in taus]
    finite = cfg.pulse_model == "finite"
    make_sampler = _finite_sampler if finite else _instantaneous_sampler
    warnings = []
    if finite:
        for w in _finite_windows(seqs[0], delta, cfg.rabi):
            if w[0] == "pulse" and w[1] / cfg.time_step < 10:
                warnings.append(
                    f"pulse of duration {w[1]:.3g} resolved by fewer than 10 "
                    f"steps of {cfg.time_step:.3g}")
                break
    noisy = noise.gamma > 0.0
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


def _finite_sampler(seq, delta, noise, cfg):
    """sample(rng, m) with finite pulses; see _finite_block_samples."""
    return functools.partial(_finite_block_samples,
                             _finite_windows(seq, delta, cfg.rabi), noise, cfg)


def _finite_block_samples(windows, noise, cfg, rng, m):
    """sigma_z of m trajectories through the finite-pulse window
    timeline; rng None means noiseless."""
    lam, gamma = noise.lam, noise.gamma
    noisy = gamma > 0.0 and rng is not None
    renewal = noise.kind is NoiseKind.RENEWAL
    f = rng.normal(0.0, gamma, m) if noisy else np.zeros(m)
    psi = np.tile(SPIN_UP, (m, 1))

    def advance(f):
        # one noise step of size h: exact OU kernel, or exact renewal
        # end-value kernel with the held (left) value as the step sample
        if renewal:
            jumped = rng.random(m) < -math.expm1(-lam * h)
            fn = np.where(jumped, rng.normal(0.0, gamma, m), f)
            return fn, f
        fn = f * decay + rng.normal(0.0, sd, m)
        return fn, 0.5 * (f + fn)

    for kind, dur, nz_rate, nx_rate in windows:
        if dur == 0.0:
            continue
        max_step = min(cfg.time_step, 0.05 / lam) if noisy else dur
        steps = max(1, int(np.ceil(dur / max_step)))
        h = dur / steps
        if noisy and not renewal:
            decay = math.exp(-lam * h)
            sd = gamma * math.sqrt(max(0.0, 1.0 - decay * decay))
        if kind == "delay":
            # pure z rotation: integrate the phase, apply once
            acc = np.zeros(m)
            if noisy:
                for _ in range(steps):
                    f, fstep = advance(f)
                    acc += h * fstep
            phi = nz_rate * dur + acc
            psi[:, 0] *= np.exp(-0.5j * phi)
            psi[:, 1] *= np.exp(+0.5j * phi)
        else:
            for _ in range(steps):
                if noisy:
                    f, fstep = advance(f)
                else:
                    fstep = 0.0
                nz = nz_rate + fstep
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


def _xyz(psi):
    z01 = psi[0].conjugate() * psi[1]
    return (2 * z01.real, 2 * z01.imag,
            float(abs(psi[0]) ** 2 - abs(psi[1]) ** 2))


def bloch_trajectory(seq_kind: SequenceKind, theta: float, delta: float,
                     tau: float, samples_per_segment: int = 60) -> list:
    """Noiseless (x, y, z) path of the pure state along the sequence.

    Pulses are swept as continuous rotations about their tilted axes but
    advance no time (instantaneous-pulse model); delays advance t.
    """
    if samples_per_segment < 1:
        raise ValueError("samples_per_segment must be >= 1")
    seq = build_sequence(seq_kind, theta, delta, tau)
    psi = SPIN_UP.copy()
    t = 0.0
    pts = [BlochPoint(t, *_xyz(psi))]
    for el in seq.elements:
        if isinstance(el, PulseParams):
            start = psi
            for k in range(1, samples_per_segment + 1):
                part = PulseParams(el.theta, el.beta * k / samples_per_segment,
                                   el.detuning_sign)
                psi = rotation_matrix(part) @ start
                pts.append(BlochPoint(t, *_xyz(psi)))
        else:
            start = psi
            rate = el.detuning_sign * delta
            for k in range(1, samples_per_segment + 1):
                dt = el.duration * k / samples_per_segment
                phi = rate * dt
                psi = np.array([np.exp(-0.5j * phi) * start[0],
                                np.exp(+0.5j * phi) * start[1]])
                pts.append(BlochPoint(t + dt, *_xyz(psi)))
            t += el.duration
    return pts


def bloch_to_csv(points, path, header_comment: str | None = None) -> None:
    with open(path, "w") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write("t,x,y,z\n")
        for p in points:
            fh.write(f"{p.t:.17g},{p.x:.17g},{p.y:.17g},{p.z:.17g}\n")
