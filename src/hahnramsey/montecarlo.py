"""Stochastic validation engine: propagates the spin through pulse
sequences over sampled noise trajectories and estimates the signal with
standard errors.  Independent of the closed forms in `analytic`, which
is the point: agreement between the two is the end-to-end check of the
Gaussian averaging behind every decay law.

One function, run_mc, serves both pulse models of McConfig.pulse_model:
instantaneous pulses (tilted-axis rotations that take no time) and
finite pulses (driven windows through which the noise keeps running).
Both list the sequence as one timeline of ops (_timeline) and run one
sampler (_sampler) on the real Bloch vector: a 3x3 rotation per
instantaneous pulse and, per window step, one rotation from one
half-angle tangent, since numpy's tan is SIMD-vectorized and its cos and
sin are not (see _cos_sin).  Seeding, block reduction and worker fan-out
are shared as well.

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

The phase integral of every window step is drawn exactly, for both
noise kinds, from the window kernels in `noise`, one call per step:
event-driven for renewal noise; for OU noise two normals per step and
one for the last step of a trajectory, whose end value nothing reads,
plus one for the stationary start value.  time_step only sets the grid
on which noisy finite pulses are stepped.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._datafile import write_csv as _write_csv
from .noise import _WINDOW_INTEGRALS, NoiseKind, NoiseParams
from .spincore import Delay, PulseParams, SequenceKind, build_sequence

__all__ = ["McConfig", "SignalCurve", "BlochPoint", "run_mc",
           "bloch_trajectory", "bloch_to_csv", "BLOCK_SIZE",
           "MAX_PULSE_STEPS", "PulseStepError", "MAX_RENEWAL_EVENTS",
           "RenewalEventError"]

BLOCK_SIZE = 8192
#: bound on the noisy finite-pulse steps of one trajectory; each step is a
#: pass of the Python loop in _sampler
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


def _bloch_rotation(p: PulseParams) -> list:
    """SO(3) matrix, as nested lists of floats, of a tilted-axis pulse: the
    rotation by beta about n = (sin th, 0, cos th) = _pulse_axis(p), with
    the entries of Rodrigues' formula
    n n^T + cos(beta) (I - n n^T) + sin(beta) [n]x written out for n_y = 0.
    It is the Bloch-vector image of spincore.rotation_matrix(p)."""
    th = p.detuning_sign * p.theta
    nx, nz = math.sin(th), math.cos(th)
    c, s = math.cos(p.beta), math.sin(p.beta)
    xx, xz, zz = nx * nx, nx * nz, nz * nz
    return [[xx + c * (1.0 - xx), -s * nz, xz - c * xz],
            [s * nz, c, -s * nx],
            [xz - c * xz, s * nx, zz + c * (1.0 - zz)]]


def _cos_sin(phi):
    """cos(phi) and sin(phi) from one half-angle tangent t = tan(phi/2):
    cos = (1 - t^2) / (1 + t^2), sin = 2 t / (1 + t^2).  numpy's float64
    tan is vectorized with SIMD while its cos and sin are not, so this
    costs about a quarter of np.cos plus np.sin, within 2 ulp of them (t
    stays finite: no double is an odd multiple of pi).  For |t| < 1 cos is
    taken as 1 - 2 t^2 / (1 + t^2): the rounding of 1 + t^2 then touches
    only the small term, so cos^2 + sin^2 stays as close to 1 as with
    np.cos and np.sin, and many small finite-pulse steps do not pile up
    norm error."""
    t = np.tan(0.5 * phi)
    t2 = t * t
    d = 1.0 + t2
    return np.where(t2 < 1.0, 1.0 - 2.0 * t2 / d, (1.0 - t2) / d), 2.0 * t / d


def _timeline(seq, delta, noise, cfg) -> list:
    """seq as the ops of _sampler: a 3x3 rotation (an instantaneous pulse,
    _bloch_rotation) or a window (h, sigma_z rate, sigma_x rate, steps) of
    `steps` steps of length h.

    A delay is one step at sigma_x rate 0 with the instantaneous-pulse
    phase convention sign*delta.  A finite pulse realizes the requested
    tilt exactly: the drive detuning is rabi/tan(theta) (mirrored for
    detuning_sign -1) and the duration is area/effective_rabi, each window
    in its own drive frame; a noisy pulse is cut into _pulse_steps steps.
    Zero-length windows are left out, so they draw no noise.
    """
    ops = []
    for el in seq.elements:
        if isinstance(el, Delay):
            window = (el.duration, el.detuning_sign * delta, 0.0, 1)
        elif cfg.pulse_model == "instantaneous":
            ops.append(_bloch_rotation(el))
            continue
        else:
            det = cfg.rabi / math.tan(el.theta) if el.theta < math.pi / 2 else 0.0
            dur = el.beta / math.hypot(cfg.rabi, det)
            steps = (_pulse_steps(dur, noise.lam, cfg.time_step)
                     if noise.gamma > 0.0 else 1)
            window = (dur / steps, el.detuning_sign * det, cfg.rabi, steps)
        if window[0] > 0.0:
            ops.append(window)
    return ops


def _pulse_steps(duration, lam, time_step):
    """Steps of a noisy pulse: the time_step grid, refined to resolve the
    noise correlation time 1/lam.  A count past MAX_PULSE_STEPS, which
    run_mc refuses, comes back as MAX_PULSE_STEPS + 1, so that one too
    large for a float still gives an int."""
    steps = duration / min(time_step, 0.05 / lam)
    return max(1, math.ceil(min(steps, MAX_PULSE_STEPS + 1)))


def _sampler(seq, delta, noise, cfg):
    """sample(rng, m): sigma_z of m trajectories through the _timeline of
    seq; rng None or gamma 0 means noiseless.

    The state is carried as the real Bloch vector (x, y, z), starting as
    the scalars (0, 0, 1).  A rotation op is applied as it stands, a
    final one only in its z row, since only z is read out.  Each
    window step draws the phase integral X of its noise from the exact
    window kernel of the noise kind and rotates by the angle vector
    (nx h, 0, nz h + X): about z for a delay (nx = 0), by Rodrigues'
    formula about its per-trajectory axis for a pulse step, with cos and
    sin from one half-angle tangent (_cos_sin: SIMD tan instead of scalar
    cos and sin).

    Nothing reads the noise value at the end of the last window step, so
    that step asks its kernel for the integral alone (with_end false: one
    normal instead of two for OU noise), and the stationary start value is
    drawn only when the timeline has a window to read it.
    """
    ops = _timeline(seq, delta, noise, cfg)
    # only z is read out, so a final rotation applies just its z row
    readout = ops.pop()[2] if ops and isinstance(ops[-1], list) else None
    # the last window step becomes an op of its own, the only one whose
    # end value goes unread
    last = max((i for i, op in enumerate(ops) if isinstance(op, tuple)),
               default=None)
    if last is not None and ops[last][3] > 1:
        h, nz, nx, steps = ops[last]
        ops[last:last + 1] = [(h, nz, nx, steps - 1), (h, nz, nx, 1)]
        last += 1
    kernel = _WINDOW_INTEGRALS.get(noise.kind)
    lam, gamma = noise.lam, noise.gamma
    noisy = gamma > 0.0 and last is not None

    def sample(rng, m):
        f = rng.normal(0.0, gamma, m) if rng is not None and noisy else None
        x, y, z = 0.0, 0.0, 1.0
        for i, op in enumerate(ops):
            if isinstance(op, list):
                x, y, z = [r[0] * x + r[1] * y + r[2] * z for r in op]
                continue
            h, nz, nx, steps = op
            for _ in range(steps):
                az = nz * h
                if f is not None:
                    f, phase = kernel(rng, f, lam, gamma, h, i != last)
                    az = az + phase
                if nx == 0.0:
                    c, s = _cos_sin(az)
                    x, y = x * c - y * s, x * s + y * c
                else:
                    ax = nx * h
                    angle = np.sqrt(ax * ax + az * az)
                    c, s = _cos_sin(angle)
                    kx, kz = ax / angle, az / angle
                    d = (1.0 - c) * (kx * x + kz * z)
                    x, y, z = (x * c - kz * y * s + kx * d,
                               y * c + (kz * x - kx * z) * s,
                               z * c + kx * y * s + kz * d)
        if readout is not None:
            z = readout[0] * x + readout[1] * y + readout[2] * z
        return np.broadcast_to(z, (m,))     # scalar while nothing was drawn

    return sample


def _point_estimate(sample, noisy, cfg, point_idx):
    """Mean and standard error at one tau-point, blocks seeded and reduced
    as in the module docstring; a noiseless point is one exact sample."""
    if not noisy:
        return float(sample(None, 1)[0]), 0.0
    n = cfg.n_trajectories
    total = 0.0
    dev = dev_sq = 0.0
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    for b in range(n_blocks):
        m = min(BLOCK_SIZE, n - b * BLOCK_SIZE)
        rng = np.random.default_rng(
            np.random.SeedSequence(cfg.master_seed, spawn_key=(point_idx, b)))
        sz = sample(rng, m)
        if b == 0:   # deviations from a sample: 0 when all agree, no cancellation
            shift = sz[0]
        total += float(sz.sum())
        d = sz - shift
        dev += float(d.sum())
        dev_sq += float((d * d).sum())
    mean = total / n
    var = max(0.0, (dev_sq - dev * dev / n) / max(1, n - 1))
    return mean, math.sqrt(var / n)


def run_mc(seq_kind: SequenceKind, theta: float, delta: float,
           noise: NoiseParams, taus, cfg: McConfig) -> SignalCurve:
    """Monte Carlo estimate of <sigma_z> per tau under cfg.pulse_model.

    Both pulse models run the one sampler (_sampler) over the window
    timeline of each sequence (_timeline).  Finite pulses evolve under
    ((det + f(t))/2) sigma_z + (rabi/2) sigma_x, stepped on the time_step
    grid with f held at its mean over each step, and the noise runs
    continuously through pulses and delays.  Raises PulseStepError when a
    trajectory would take over MAX_PULSE_STEPS pulse steps, and
    RenewalEventError when it would expect over MAX_RENEWAL_EVENTS renewal
    events.  Deterministic for a fixed master_seed at any cfg.workers; see
    the module docstring for the seeding scheme.
    """
    taus = _validate(theta, delta, noise, taus)
    seqs = [build_sequence(seq_kind, theta, delta, float(t)) for t in taus]
    noisy = noise.gamma > 0.0
    # the longest sequence; its pulses are those of every tau
    windows = [op for op in _timeline(seqs[int(np.argmax(taus))], delta, noise, cfg)
               if isinstance(op, tuple)]
    span = sum(h * steps for h, _, _, steps in windows)
    if (noisy and noise.kind is NoiseKind.RENEWAL
            and noise.lam * span > MAX_RENEWAL_EVENTS):
        raise RenewalEventError(
            f"renewal noise expects lam * {span:.3g} = {noise.lam * span:.3g} "
            f"events per trajectory, over {MAX_RENEWAL_EVENTS}")
    pulses = [(h * steps, steps) for h, _, nx, steps in windows if nx]
    pulse_steps = sum(steps for _, steps in pulses)
    if pulse_steps > MAX_PULSE_STEPS:
        raise PulseStepError(
            f"finite pulses need over {MAX_PULSE_STEPS} noisy steps per "
            f"trajectory (pulse time / min(time_step, 0.05/lam))")
    coarse = [dur for dur, _ in pulses if dur / cfg.time_step < 10]
    warnings = [f"pulse of duration {coarse[0]:.3g} resolved by fewer than 10 "
                f"steps of {cfg.time_step:.3g}"] if coarse else []
    means = np.empty(taus.size)
    errs = np.empty(taus.size)

    def work(i):
        sample = _sampler(seqs[i], delta, noise, cfg)
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
