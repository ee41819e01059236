"""Stochastic validation engine: propagates the spin through pulse
sequences over sampled noise trajectories and estimates the signal with
standard errors.  Independent of the closed forms in `analytic`, which
is the point: agreement between the two is the end-to-end check of the
Gaussian averaging behind every decay law.

One function, run_mc, serves both pulse models: instantaneous pulses
(tilted-axis rotations that take no time; rabi None) and finite pulses
(driven windows at the given rabi frequency, through which the noise
keeps running).  Both list the sequence as one timeline of ops (_plan,
which also counts the work of a trajectory for the run's bounds and
for cli's) and run one sampler (_sampler), built once per curve: every
delay is tau, so a tau point only sets the delays' length.  Every turn
of a window step is taken from one half-angle tangent t = tan(phi/2)
and s = sin(phi), with cos phi written as 1 - t s (_half_tan_sin),
since numpy's tan is SIMD-vectorized and its cos and sin are not.
Finite pulses carry the real Bloch vector: a delay turns it about z
(_z_rotation: one tan, one division, 14 array passes), a pulse step
about its per-trajectory axis by Rodrigues' formula.  With
instantaneous pulses the readout is folded back at build time through
the whole timeline, pulses and delays, into scalars, so no state is
rotated: past each delay's tangent and sine the echoes' readout takes
16 array passes, and ramsey's 4.  Seeding and block reduction are
shared as well, and every tau point runs in turn on the calling
thread.  The estimates come back as plain arrays; this module writes
no file (cli writes every output).

Reproducibility scheme
----------------------
Trajectories are processed in fixed blocks of BLOCK_SIZE; the random
stream of block b at tau-point i is seeded by
``SeedSequence(master_seed, spawn_key=(i, b))``.  Block results are
reduced in ascending block order.  The estimate is therefore bitwise
identical for a given master seed, for either pulse model, since
neither stream layout nor summation order depends on the order in
which tau points run.  Within a tau-point, the deviations of the
per-trajectory sigma_z values from the first one are summed with
numpy's pairwise summation over each block, their squares by one
einsum.

The phase integral of every window step is drawn exactly, for both
noise kinds, from the window kernels in `noise`, one call per step:
event-driven for renewal noise, and for OU noise one Box-Muller normal,
from one uniform per trajectory, per window (noise._normals).  time_step
only sets the grid on which noisy finite pulses are stepped.
"""

from __future__ import annotations

import math

import numpy as np

from .noise import _WINDOW_INTEGRALS, NoiseKind, NoiseParams
from .spincore import Delay, PulseParams, SequenceKind, build_sequence

__all__ = ["run_mc", "BLOCK_SIZE", "MAX_PULSE_STEPS", "PulseStepError",
           "MAX_RENEWAL_EVENTS", "RenewalEventError"]

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


def _bloch_rotation(p: PulseParams, beta=None) -> list:
    """SO(3) matrix, as nested lists, of a tilted-axis pulse: the rotation
    by beta (p.beta unless given) about n = (sin th, 0, cos th),
    th = detuning_sign * theta, with the entries of Rodrigues' formula
    n n^T + cos(beta) (I - n n^T) + sin(beta) [n]x written out for n_y = 0.
    It is the Bloch-vector image of the pulse unitary
    cos(beta/2) I - i sin(beta/2) (n . sigma).  The entries are floats for
    p.beta, and arrays for an array of areas beta, whose cos is taken as
    1 - t sin from t = tan(beta/2) (_half_tan_sin)."""
    th = p.detuning_sign * p.theta
    nx, nz = math.sin(th), math.cos(th)
    if beta is None:
        c, s = math.cos(p.beta), math.sin(p.beta)
    else:
        t, s = _half_tan_sin(beta)
        c = 1.0 - t * s
    xx, xz, zz = nx * nx, nx * nz, nz * nz
    return [[xx + c * (1.0 - xx), -s * nz, xz - c * xz],
            [s * nz, c, -s * nx],
            [xz - c * xz, s * nx, zz + c * (1.0 - zz)]]


def _half_tan_sin(phi):
    """t = tan(phi/2) and sin(phi) = 2 t / (1 + t^2); cos(phi) is then
    1 - t sin(phi), the form that stays accurate for small phi, so many
    small steps do not pile up norm error.  t stays finite: no double is
    an odd multiple of pi."""
    t = np.tan(0.5 * phi)
    return t, 2.0 * t / (1.0 + t * t)


def _z_rotation(x, y, phi):
    """(x, y) rotated by phi about z, straight from t = tan(phi/2) and
    s = sin(phi): x - s (t x + y), y + s (x - t y), with cos phi written
    as 1 - t s.  One tan, one division and 14 array passes."""
    t, s = _half_tan_sin(phi)
    return x - s * (t * x + y), y + s * (x - t * y)


def _plan(seq_kind, theta, delta, noise, tau, rabi=None, time_step=0.01):
    """(ops, steps, events) of the sequence at tau: its timeline, the
    noisy finite-pulse steps of one trajectory (the same at any tau),
    each a pass of the loop in _sampler, and its expected renewal events,
    lam times the timeline's span (0 unless the noise is renewal noise
    that draws), each a pass of the event loop in
    noise._renewal_window_integrals.  Raises PulseStepError past
    MAX_PULSE_STEPS steps, then RenewalEventError past MAX_RENEWAL_EVENTS
    events.

    Each op is a 3x3 rotation (an instantaneous pulse, _bloch_rotation;
    rabi None) or a window (h, sigma_z rate, sigma_x rate, steps) of
    `steps` steps of length h.  A delay is one step at sigma_x rate 0
    with the instantaneous-pulse phase convention sign*delta, kept at any
    length, zero included: every delay of build_sequence is tau, so
    _sampler sets their length per sample.  A finite pulse realizes the
    requested tilt exactly: the drive detuning is rabi/tan(theta)
    (mirrored for detuning_sign -1), the inverse of spincore.tilt_angle,
    and the duration is area over the turn rate hypot(rabi, detuning),
    each window in its own drive frame; a noisy pulse is cut into
    _pulse_steps steps, and a zero-length one is left out.
    """
    noisy = noise.gamma > 0.0
    ops = []
    for el in build_sequence(seq_kind, theta, delta, tau):
        if isinstance(el, Delay):
            ops.append((el.duration, el.detuning_sign * delta, 0.0, 1))
        elif rabi is None:
            ops.append(_bloch_rotation(el))
        else:
            det = rabi / math.tan(el.theta) if el.theta < math.pi / 2 else 0.0
            dur = el.beta / math.hypot(rabi, det)
            k = _pulse_steps(dur, noise.lam, time_step) if noisy else 1
            if dur > 0.0:
                ops.append((dur / k, el.detuning_sign * det, rabi, k))
    windows = [op for op in ops if isinstance(op, tuple)]
    steps = sum(op[3] for op in windows if op[2]) if noisy else 0
    if steps > MAX_PULSE_STEPS:
        raise PulseStepError(
            f"finite pulses need over {MAX_PULSE_STEPS} noisy steps per "
            f"trajectory (pulse time / min(time_step, 0.05/lam))")
    events = 0.0
    if noisy and noise.kind is NoiseKind.RENEWAL:
        span = sum(op[0] * op[3] for op in windows)
        events = noise.lam * span
        if events > MAX_RENEWAL_EVENTS:
            raise RenewalEventError(
                f"renewal noise expects lam * {span:.3g} = {events:.3g} "
                f"events per trajectory, over {MAX_RENEWAL_EVENTS}")
    return ops, steps, events


def _pulse_steps(duration, lam, time_step):
    """Steps of a noisy pulse: the time_step grid, refined to resolve the
    noise correlation time 1/lam.  A count past MAX_PULSE_STEPS, which
    run_mc refuses, comes back as MAX_PULSE_STEPS + 1, so that one too
    large for a float still gives an int."""
    steps = duration / min(time_step, 0.05 / lam)
    return max(1, math.ceil(min(steps, MAX_PULSE_STEPS + 1)))


def _sampler(ops, noise):
    """sample(rng, m, tau=None): sigma_z of m trajectories through the
    _plan ops, every delay of length tau (None: as planned); rng None or
    gamma 0 means noiseless.  Built once per curve: a tau point only sets
    the delays' length.

    Each window step of nonzero length draws the phase integral X of its
    noise from the exact window kernel of the noise kind (for OU noise one
    Box-Muller normal, from one uniform per trajectory, per window) and
    turns by the angle vector (nx h, 0, nz h + X); a zero-length delay
    draws nothing.  The noise state starts as None, the kernels'
    stationary start, and each kernel call returns the one the next
    starts from; the last window step asks for the integral alone
    (with_end false: no OU state update).

    Finite pulses carry the real Bloch vector v = (x, y, z) from the
    scalars (0, 0, 1), each turn straight from the half-angle tangent t
    and the sine s of its angle: a delay rotates (x, y) (_z_rotation), a
    pulse step turns v about its per-trajectory axis k by Rodrigues'
    formula with cos written as 1 - t s, v + s (k x v - t v) + t s (k.v) k,
    each component taking its small increment in one addition, so that
    rounding does not pile up over thousands of steps; z is read as it
    stands.

    With instantaneous pulses (no driven window) the z readout row is
    folded back at build time through the whole timeline: through a
    pulse M every row w becomes w M; through a delay it becomes the rows
    w, (w1, -w0, 0) and (w0, w1, 0), since w.v after the delay is
    w.v + s ((w1, -w0, 0).v - t (w0, w1, 0).v) before it, with
    t = tan(az/2) and s = sin(az) of its angle (cos az = 1 - t s); at the
    start (0, 0, 1) each row is its scalar w2.  A sample takes t and s of
    each delay in turn (_half_tan_sin) and reads each consecutive triple
    (a, b, c) as a + s (b - t c).  So the echoes read nine scalars
    through both delays in 12 + 4 array passes past their t and s, and
    ramsey's delay and readout take 4.
    """
    windows = [op for op in ops if isinstance(op, tuple)]
    folded = not any(op[2] for op in windows)
    rows = [[0.0, 0.0, 1.0]]   # the z readout, folded back through ops
    for op in reversed(ops) if folded else ():
        if isinstance(op, list):
            rows = [[w[0] * op[0][j] + w[1] * op[1][j] + w[2] * op[2][j]
                     for j in range(3)] for w in rows]
        else:
            rows = [v for w in rows for v in (w, [w[1], -w[0], 0.0], [w[0], w[1], 0.0])]
    rows = [w[2] for w in rows]
    last = len(windows) - 1
    kernel = _WINDOW_INTEGRALS.get(noise.kind)
    lam, gamma = noise.lam, noise.gamma

    def sample(rng, m, tau=None):
        state, noisy = None, rng is not None and gamma > 0.0
        x, y, z = 0.0, 0.0, 1.0
        vals = rows
        for i, (h, nz, nx, steps) in enumerate(windows):
            if nx == 0.0 and tau is not None:
                h = tau
            for k in range(steps):
                az = nz * h
                if noisy and h > 0.0:
                    state, phase = kernel(rng, state, lam, gamma, h, m,
                                          i < last or k < steps - 1)
                    az = az + phase if nz else phase
                if folded:
                    t, s = _half_tan_sin(az)
                    vals = [a + s * (b - t * c)
                            for a, b, c in zip(vals[::3], vals[1::3], vals[2::3])]
                elif nx == 0.0:
                    x, y = _z_rotation(x, y, az)
                else:
                    ax = nx * h
                    angle = np.sqrt(ax * ax + az * az)
                    t, s = _half_tan_sin(angle)
                    kx, kz = ax / angle, az / angle
                    d = t * s * (kx * x + kz * z)
                    x, y, z = (x + (kx * d - s * (t * x + kz * y)),
                               y + s * (kz * x - kx * z - t * y),
                               z + (kz * d + s * (kx * y - t * z)))
        if folded:
            z = vals[0]
        # z is an (m,) array once a window drew noise, else a scalar
        return z if np.ndim(z) else np.broadcast_to(z, (m,))

    return sample


def _point_estimate(sample, noisy, n, seed, point_idx, tau):
    """Mean and standard error at one tau-point, blocks seeded and reduced
    as in the module docstring; a noiseless point is one exact sample.  A
    block is reduced in 3 array passes: the deviations from the first
    sample (0 when all agree, no cancellation), their sum and, by einsum,
    the sum of their squares."""
    if not noisy:
        return float(sample(None, 1, tau)[0]), 0.0
    dev = dev_sq = 0.0
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    for b in range(n_blocks):
        m = min(BLOCK_SIZE, n - b * BLOCK_SIZE)
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(point_idx, b)))
        sz = sample(rng, m, tau)
        if b == 0:
            shift = float(sz[0])
        d = sz - shift
        dev += float(d.sum())
        dev_sq += float(np.einsum("i,i", d, d))
    var = max(0.0, (dev_sq - dev * dev / n) / max(1, n - 1))
    return shift + dev / n, math.sqrt(var / n)


def run_mc(seq_kind: SequenceKind, theta: float, delta: float,
           noise: NoiseParams, taus, n_trajectories: int, seed: int = 12345,
           rabi: float | None = None, time_step: float = 0.01):
    """Monte Carlo estimate of <sigma_z> per tau: (means, stderrs,
    warnings), two arrays and a list of strings.  The stderr is zero
    wherever the estimate is deterministic (no noise).

    rabi None means instantaneous pulses.  Finite pulses at rabi evolve
    under ((det + f(t))/2) sigma_z + (rabi/2) sigma_x, stepped on the
    time_step grid with f held at its mean over each step, and the noise
    runs continuously through pulses and delays.  Raises ValueError on
    n_trajectories < 1, time_step <= 0 or rabi <= 0, PulseStepError when
    a trajectory would take over MAX_PULSE_STEPS pulse steps, and
    RenewalEventError when it would expect over MAX_RENEWAL_EVENTS
    renewal events.  Deterministic for a fixed seed; see the
    module docstring for the seeding scheme.  The sequence, its timeline
    and the sampler are built once, at the longest tau, and the checks
    read that timeline.  The tau points run in index order on the calling
    thread, and the first exception ends the run.
    """
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be >= 1")
    if not time_step > 0:
        raise ValueError("time_step must be > 0")
    if rabi is not None and not rabi > 0:
        raise ValueError("finite pulses need rabi > 0")
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("taus must be a non-empty 1-d array")
    if not (np.isfinite(taus).all() and np.isfinite([theta, delta, noise.lam,
                                                     noise.gamma]).all()):
        raise ValueError("non-finite simulation parameter")
    if (taus < 0).any():
        raise ValueError("taus must be >= 0")
    noisy = noise.gamma > 0.0
    ops, _, _ = _plan(seq_kind, theta, delta, noise, float(taus.max()), rabi,
                      time_step)
    coarse = [op[0] * op[3] for op in ops
              if isinstance(op, tuple) and op[2] and op[0] * op[3] / time_step < 10]
    warnings = [f"pulse of duration {coarse[0]:.3g} resolved by fewer than 10 "
                f"steps of {time_step:.3g}"] if coarse else []
    sample = _sampler(ops, noise)
    means, errs = np.empty(taus.size), np.empty(taus.size)
    for i, tau in enumerate(taus.tolist()):
        means[i], errs[i] = _point_estimate(sample, noisy, n_trajectories, seed,
                                            i, tau)
    return means, errs, warnings


# ---------------------------------------------------------------------------
# noiseless Bloch-sphere trajectories


def _bloch_path(seq_kind: SequenceKind, theta: float, delta: float,
                tau: float, samples_per_segment: int) -> np.ndarray:
    """Rows t, x, y, z of the noiseless path of the pure state along the
    sequence.

    Pulses are swept as continuous rotations about their tilted axes but
    advance no time (instantaneous-pulse model); delays advance t.  Each
    segment's samples are one array expression on the Bloch vector: a
    pulse applies _bloch_rotation at its partial areas, a delay
    _z_rotation by its partial phases.
    """
    if samples_per_segment < 1:
        raise ValueError("samples_per_segment must be >= 1")
    frac = np.arange(1, samples_per_segment + 1)
    xyz = np.array([[0.0, 0.0, 1.0]])
    t = 0.0
    ts, paths = [np.zeros(1)], [xyz]
    for el in build_sequence(seq_kind, theta, delta, tau):
        x, y, z = xyz[-1]
        if isinstance(el, PulseParams):
            m = _bloch_rotation(el, el.beta * frac / samples_per_segment)
            xyz = np.stack([r[0] * x + r[1] * y + r[2] * z for r in m], axis=1)
            ts.append(np.full(samples_per_segment, t))
        else:
            dt = el.duration * frac / samples_per_segment
            xyz = np.stack([*_z_rotation(x, y, el.detuning_sign * delta * dt),
                            np.full(samples_per_segment, z)], axis=1)
            ts.append(t + dt)
            t += el.duration
        paths.append(xyz)
    return np.column_stack([np.concatenate(ts), np.concatenate(paths)])
