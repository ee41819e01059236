"""Classical dephasing noise with exponential correlation.

Two generators share the stationary correlation C(dt) = Gamma^2 exp(-lambda|dt|):

* an Ornstein-Uhlenbeck process (Gaussian, the model under which all
  closed-form decay laws are exact), sampled with the exact transition
  kernel so there is no step-size bias, and
* a renewal process that holds a Normal(0, Gamma^2) value and redraws it
  at Poisson(lambda) event times.  Same second moments, different higher
  moments.

The module also provides the three dephasing exponents as closed forms
(f1, delta_f) and as frequency-domain integrals over the Lorentzian
spectral density (chi_filter), which must agree.

Sampling is deterministic per seed: identical (params, grid, seed) give
identical trajectories regardless of how many are drawn in parallel
elsewhere.  The ensemble helpers draw a whole batch from one seeded
stream; for concurrent fan-out give worker i its own child stream,
numpy.random.SeedSequence(master_seed, spawn_key=(i,)), the counter-based
splitting scheme the Monte Carlo engine uses per block.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "NoiseKind", "NoiseParams", "NoiseTrajectory", "DephasingConstants",
    "FilterKind", "correlation", "f1", "delta_f", "dephasing_constants",
    "chi_filter", "sample_ou", "sample_renewal", "sample_ou_ensemble",
    "sample_renewal_ensemble", "integrate_trajectory", "QuadratureError",
]


class NoiseKind(enum.Enum):
    ORNSTEIN_UHLENBECK = "ou"
    RENEWAL = "renewal"
    NONE = "none"


@dataclass(frozen=True)
class NoiseParams:
    """Correlation rate lam (1/time) and strength gamma (rad/time)."""

    lam: float
    gamma: float
    kind: NoiseKind = NoiseKind.ORNSTEIN_UHLENBECK

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("correlation rate lam must be > 0")
        if self.gamma < 0:
            raise ValueError("noise strength gamma must be >= 0")
        if self.kind is NoiseKind.NONE and self.gamma != 0:
            raise ValueError("kind NONE requires gamma = 0")


@dataclass(frozen=True)
class NoiseTrajectory:
    """One sampled realization f(t) on a strictly increasing grid.

    For renewal noise the grid is the requested grid augmented with the
    jump times, so the stored samples represent the path exactly;
    values[i] holds on [grid[i], grid[i+1]).
    """

    grid: np.ndarray
    values: np.ndarray
    seed: int
    kind: NoiseKind

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 1:
            raise ValueError("grid and values must be equal-length 1-d arrays")
        if g.size > 1 and not (np.diff(g) > 0).all():
            raise ValueError("grid must be strictly increasing")
        g.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def at(self, times) -> np.ndarray:
        """Values at arbitrary times inside the span: step lookup for the
        piecewise-constant renewal process, linear interpolation for OU."""
        t = np.asarray(times, dtype=float)
        if t.min() < self.grid[0] or t.max() > self.grid[-1]:
            raise ValueError("query times outside the trajectory span")
        if self.kind is NoiseKind.RENEWAL:
            idx = np.clip(np.searchsorted(self.grid, t, side="right") - 1,
                          0, self.grid.size - 1)
            return self.values[idx]
        return np.interp(t, self.grid, self.values)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,f\n")
            for t, v in zip(self.grid, self.values):
                fh.write(f"{t:.17g},{v:.17g}\n")


@dataclass(frozen=True)
class DephasingConstants:
    """Same-interval (f1) and cross-interval (delta_f) phase-variance
    integrals at a given tau."""

    f1: float
    delta_f: float


def correlation(p: NoiseParams, dt: float):
    """Stationary autocovariance Gamma^2 exp(-lambda |dt|)."""
    return p.gamma ** 2 * np.exp(-p.lam * np.abs(dt))


def f1(p: NoiseParams, tau):
    """Half the variance of the phase integrated over one interval of
    length tau:  (Gamma/lambda)^2 (lambda tau + exp(-lambda tau) - 1)."""
    tau = np.asarray(tau, dtype=float)
    if (tau < 0).any():
        raise ValueError("tau must be >= 0")
    x = p.lam * tau
    out = (p.gamma / p.lam) ** 2 * (x + np.exp(-x) - 1.0)
    return out if out.ndim else float(out)


def delta_f(p: NoiseParams, tau):
    """Half the covariance between the phases of two adjacent intervals:
    (Gamma/lambda)^2 (1 - 2 exp(-lambda tau) + exp(-2 lambda tau)) / 2."""
    tau = np.asarray(tau, dtype=float)
    if (tau < 0).any():
        raise ValueError("tau must be >= 0")
    e = np.exp(-p.lam * tau)
    out = 0.5 * (p.gamma / p.lam) ** 2 * (1.0 - 2.0 * e + e * e)
    return out if out.ndim else float(out)


def dephasing_constants(p: NoiseParams, tau: float) -> DephasingConstants:
    return DephasingConstants(f1(p, tau), delta_f(p, tau))


class FilterKind(enum.Enum):
    #: sin^2(w tau) window; full-window free-precession decay, equals 2(f1 + delta_f)
    RAMSEY_LIKE = "ramsey_like"
    #: sin^2(w tau / 2) window; half-window decay, equals f1
    HALF_PERIOD = "half_period"
    #: sin^4(w tau / 2) window; refocused (echo) decay, equals 2(f1 - delta_f)
    HAHN_LIKE = "hahn_like"


class QuadratureError(RuntimeError):
    pass


_GL_NODES, _GL_WEIGHTS = leggauss(12)


def _composite_gl(fn, edges: np.ndarray) -> float:
    a = edges[:-1]
    h = np.diff(edges)
    x = (a[:, None] + 0.5 * h[:, None] * (_GL_NODES[None, :] + 1.0)).ravel()
    w = (0.5 * h[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return float(fn(x) @ w)


def chi_filter(kind: FilterKind, p: NoiseParams, tau: float,
               target_error: float = 1e-8) -> float:
    """Decay exponent from the frequency-domain overlap of the sequence
    window with the Lorentzian noise spectrum 2 Gamma^2 lambda/(w^2+lam^2).

    Evaluated by composite Gauss-Legendre quadrature up to a cutoff of at
    least max(50 lam, 50/tau), extended until the analytic tail bound
    (from the 1/w^4 falloff of the integrand) meets target_error.  Raises
    QuadratureError when the achieved error estimate exceeds the target.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tau == 0.0 or p.gamma == 0.0:
        return 0.0
    lam = p.lam
    if kind is FilterKind.RAMSEY_LIKE:
        half_t, pref, mean = tau, 4.0 * lam * p.gamma ** 2 / np.pi, 0.5
        window = lambda w: np.sin(w * tau) ** 2
    elif kind is FilterKind.HALF_PERIOD:
        half_t, pref, mean = tau / 2, 4.0 * lam * p.gamma ** 2 / np.pi, 0.5
        window = lambda w: np.sin(w * tau / 2) ** 2
    elif kind is FilterKind.HAHN_LIKE:
        half_t, pref, mean = tau / 2, 16.0 * lam * p.gamma ** 2 / np.pi, 0.375
        window = lambda w: np.sin(w * tau / 2) ** 4
    else:
        raise ValueError(f"unknown filter kind {kind!r}")

    def integrand(w):
        return window(w) / (w * w * (w * w + lam * lam))

    floor = max(50.0 * lam, 50.0 / tau)
    # truncation keeps the oscillatory tail remainder, ~pref/(2 half_t w^4)
    # by integration by parts, below half the target
    need = (pref / (half_t * target_error)) ** 0.25
    w_max = max(floor, min(need, 100.0 * floor))
    # panels resolve the fastest window harmonic (2 w half_t at most a
    # half period each) and the Lorentzian knee at w ~ lam
    width = min(np.pi / (2.0 * tau), lam / 2.0, w_max / 8.0)
    n = int(np.ceil(w_max / width))
    coarse = _composite_gl(integrand, np.linspace(0.0, w_max, n + 1))
    fine = _composite_gl(integrand, np.linspace(0.0, w_max, 2 * n + 1))
    # analytic tail: window replaced by its mean value
    tail = mean / lam ** 2 * (1.0 / w_max - (np.pi / 2 - np.arctan(w_max / lam)) / lam)
    remainder = pref / (2.0 * half_t * w_max ** 4)
    value = pref * (fine + tail)
    # 12-point panels converge far faster than halving suggests; /10 is a
    # conservative Richardson factor.  The last term is the float floor.
    err = (pref * abs(fine - coarse) / 10.0 + remainder
           + 1e-15 * max(1.0, abs(value)))
    if err > target_error:
        raise QuadratureError(
            f"chi_filter({kind.value}) did not converge: error estimate {err:.3e} "
            f"exceeds target {target_error:.1e}")
    return value


def _checked_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("grid must be a non-empty 1-d array")
    if grid.size > 1 and not (np.diff(grid) > 0).all():
        raise ValueError("grid must be strictly increasing")
    return grid


def sample_ou_ensemble(p: NoiseParams, grid, n: int, seed) -> np.ndarray:
    """n OU trajectories on the given grid, shape (n, len(grid)).

    Exact discretization: stationary start F(t0) ~ Normal(0, Gamma^2),
    then F(t+d) = F(t) exp(-lam d) + Normal(0, Gamma^2 (1 - exp(-2 lam d))).
    """
    if p.kind is not NoiseKind.ORNSTEIN_UHLENBECK:
        raise ValueError("sample_ou requires kind ORNSTEIN_UHLENBECK")
    grid = _checked_grid(grid)
    rng = np.random.default_rng(seed)
    out = np.empty((n, grid.size))
    if p.gamma == 0.0:
        out[:] = 0.0
        return out
    out[:, 0] = rng.normal(0.0, p.gamma, n)
    for k in range(grid.size - 1):
        d = grid[k + 1] - grid[k]
        decay = math.exp(-p.lam * d)
        sd = p.gamma * math.sqrt(max(0.0, 1.0 - decay * decay))
        out[:, k + 1] = out[:, k] * decay + rng.normal(0.0, sd, n)
    return out


def sample_ou(p: NoiseParams, grid, seed) -> NoiseTrajectory:
    """One OU trajectory; see sample_ou_ensemble for the kernel."""
    values = sample_ou_ensemble(p, grid, 1, seed)[0]
    return NoiseTrajectory(np.asarray(grid, dtype=float), values, seed,
                           NoiseKind.ORNSTEIN_UHLENBECK)


def sample_renewal_ensemble(p: NoiseParams, grid, n: int, seed) -> np.ndarray:
    """n renewal trajectories sampled exactly at the grid times.

    Between consecutive grid times the held value redraws with probability
    1 - exp(-lam d); conditioned on at least one jump the end value is a
    fresh Normal(0, Gamma^2) draw, so grid sampling is exact.
    """
    if p.kind is not NoiseKind.RENEWAL:
        raise ValueError("sample_renewal requires kind RENEWAL")
    grid = _checked_grid(grid)
    rng = np.random.default_rng(seed)
    out = np.empty((n, grid.size))
    out[:, 0] = rng.normal(0.0, p.gamma, n)
    for k in range(grid.size - 1):
        d = grid[k + 1] - grid[k]
        jumped = rng.random(n) < -math.expm1(-p.lam * d)
        fresh = rng.normal(0.0, p.gamma, n)
        out[:, k + 1] = np.where(jumped, fresh, out[:, k])
    return out


def sample_renewal(p: NoiseParams, grid, seed) -> NoiseTrajectory:
    """One renewal trajectory with its jump times merged into the grid,
    so the returned samples represent the path exactly."""
    if p.kind is not NoiseKind.RENEWAL:
        raise ValueError("sample_renewal requires kind RENEWAL")
    grid = _checked_grid(grid)
    rng = np.random.default_rng(seed)
    t0, t1 = grid[0], grid[-1]
    jumps = []
    t = t0
    while True:
        t = t + rng.exponential(1.0 / p.lam)
        if t >= t1:
            break
        jumps.append(t)
    full = np.unique(np.concatenate([grid, np.asarray(jumps)]))
    # held values: fresh draw at start and after each jump
    values = np.empty(full.size)
    draw = rng.normal(0.0, p.gamma)
    j = 0
    for i, ti in enumerate(full):
        while j < len(jumps) and jumps[j] <= ti:
            draw = rng.normal(0.0, p.gamma)
            j += 1
        values[i] = draw
    return NoiseTrajectory(full, values, seed, NoiseKind.RENEWAL)


def integrate_trajectory(traj: NoiseTrajectory, t0: float, t1: float) -> float:
    """integral of f(t) dt over [t0, t1], using the generator-consistent
    rule: exact piecewise-constant integration for renewal noise,
    trapezoidal (O(step^2) bias) for OU."""
    if t0 > t1:
        raise ValueError("need t0 <= t1")
    g, v = traj.grid, traj.values
    if t0 < g[0] or t1 > g[-1]:
        raise ValueError("integration window outside the trajectory span")
    if traj.kind is NoiseKind.RENEWAL:
        lo = np.maximum(np.clip(g[:-1], t0, t1), t0)
        hi = np.minimum(np.clip(g[1:], t0, t1), t1)
        return float(np.sum(v[:-1] * np.clip(hi - lo, 0.0, None)))
    inner = (g > t0) & (g < t1)
    ts = np.concatenate([[t0], g[inner], [t1]])
    vs = np.concatenate([[traj.at(t0)], v[inner], [traj.at(t1)]])
    return float(np.trapezoid(vs, ts))
