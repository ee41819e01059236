"""Classical dephasing noise with exponential correlation.

Two processes share the stationary correlation C(dt) = Gamma^2 exp(-lambda|dt|):

* an Ornstein-Uhlenbeck process (Gaussian, the model under which all
  closed-form decay laws are exact), and
* a renewal process that holds a Normal(0, Gamma^2) value and redraws it
  at Poisson(lambda) event times.  Same second moments, different higher
  moments.

One function, filter_exponents, forms the decay exponents of the three
filter windows (FilterKind) of the detuned echo, which equal the overlaps
of those windows with the Lorentzian spectral density; each is a sum of
non-negative terms in x = lambda tau, so none cancels at small x.  In
the dephasing integrals F1 (half the variance of the phase of one free
interval) and dF (half the covariance of the phases of two adjacent
ones) they are 2 (F1 + dF), F1 and 2 (F1 - dF); f1 reads F1 from it.

Its samplers are the two exact window kernels, one per noise kind
(_WINDOW_INTEGRALS): from a noise state (None: stationary) they draw the
phase integral of one window, with no step-size bias, and return the
state the next window starts from: the held value for renewal noise,
for OU noise the law of the value given the integrals drawn, so that
each OU window costs one Box-Muller normal, from one uniform per
trajectory.  Both draw every normal through _normals.  The Monte Carlo
engine draws the phase of every delay and finite-pulse step from them.
They take the random generator as an argument; the engine seeds one per
block.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["NoiseKind", "NoiseParams", "FilterKind", "f1", "filter_exponents"]


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


class FilterKind(enum.Enum):
    #: sin^2(w tau) window; full-window free-precession decay, 2 (F1 + dF)
    RAMSEY_LIKE = "ramsey_like"
    #: sin^2(w tau / 2) window; half-window decay, F1
    HALF_PERIOD = "half_period"
    #: sin^4(w tau / 2) window; refocused (echo) decay, 2 (F1 - dF)
    HAHN_LIKE = "hahn_like"


def _float_or_array(out):
    return out if out.ndim else float(out)


def filter_exponents(p: NoiseParams, tau) -> tuple:
    """Decay exponents of the three filter windows at tau (a float or an
    array; each result has its shape), in FilterKind order.

    With x = lambda tau, g = x - 2 tanh(x/2) (by a series of positive
    terms below x = 2), t = tanh(x/2) and m = expm1(-x), each is
    (Gamma/lambda)^2 times a sum of non-negative terms:

        Ramsey-like  2 (F1 + dF) = 2 F1 + m^2
        half-period  F1          = (g + x t) / (1 + t)   (= x + m)
        Hahn-like    2 (F1 - dF) = 2 g + t m^2

    so nothing cancels at small x, where x + e^-x - 1 and 2 (F1 - dF)
    lose every digit.  Over x in [1e-100, 1e24] each is within 1e-15
    relative of 50-digit values.  dF, (Gamma/lambda)^2 m^2 / 2, is
    (Ramsey-like - Hahn-like) / 4."""
    tau = np.asarray(tau, dtype=float)
    if tau.min(initial=np.inf) < 0:
        raise ValueError("tau must be >= 0")
    x = p.lam * tau
    t, m, g = np.tanh(0.5 * x), np.expm1(-x), _x_minus_2_tanh_half(x)
    half = (g + x * t) / (1.0 + t)
    scale = (p.gamma / p.lam) ** 2
    return tuple(_float_or_array(scale * e)
                 for e in (2.0 * half + m * m, half, 2.0 * g + t * m * m))


def f1(p: NoiseParams, tau):
    """Half the variance of the phase integrated over one interval of
    length tau, (Gamma/lambda)^2 (lambda tau + exp(-lambda tau) - 1): the
    half-period exponent."""
    return filter_exponents(p, tau)[1]


#: 2k / (2k+1)! for k = 12 down to 1: y cosh y - sinh y is y^3 times
#: their series in y^2
_X_MINUS_2_TANH_HALF_TERMS = tuple(2 * k / math.factorial(2 * k + 1)
                                   for k in range(12, 0, -1))


def _x_minus_2_tanh_half(x):
    """x - 2 tanh(x/2) for x >= 0 (a float or an array; the result has
    its shape), the O(x^3) core of the OU window variances and of the
    filter exponents.  The direct difference cancels: it is 1.4e-5
    relative off at x = 1e-5 and rounds to 0 from about x = 1e-8.  Below
    x = 2 it is 2 (y cosh y - sinh y) / cosh y with y = x/2 instead,
    whose numerator's series terms are all positive; over x in
    [1e-100, 1e3] it is within 6e-16 relative of 50-digit values.  A
    Python float (the OU kernel's one value per window) takes the same
    steps in `math`, without the array calls; np.float64 does not."""
    scalar = type(x) is float
    if scalar and x >= 2.0:
        return x - 2.0 * math.tanh(0.5 * x)
    y = 0.5 * (x if scalar else np.minimum(x, 2.0))
    y2 = y * y
    total = 0.0
    for c in _X_MINUS_2_TANH_HALF_TERMS:
        total = total * y2 + c
    if scalar:
        return 2.0 * y * y2 * total / math.cosh(y)
    return _float_or_array(np.where(x < 2.0, 2.0 * y * y2 * total / np.cosh(y),
                                    x - 2.0 * np.tanh(0.5 * x)))


def _ou_window_integrals(rng, state, lam, gamma, dur, n, with_end=True):
    """Exact OU draw of the integral X of f over one window of length dur
    for n trajectories; returns (the state the next window starts from,
    X), or (None, X) when with_end is false.

    The state (m, p) is the law Normal(m, Gamma^2 p) of f at the window's
    start given the integrals drawn before it, m per trajectory and p one
    float; None is the stationary start (0, 1), (c, 0) a known value c.
    X and f(dur) given f(0) are jointly Gaussian (Gillespie, Phys. Rev. E
    54, 2084 (1996)) and f is Markov, so with x = lam dur, e = exp(-x),
    q = 1 - e, t = tanh(x/2) and s = 2 (x - 2 tanh(x/2)) / q^2, X is
    k m + y, k = q/lam, y ~ Normal(0, (k Gamma)^2 w), w = s + t + p: one
    normal per window, at the stationary start (m = 0) X itself.  The
    Kalman update (J. Basic Eng. 82, 35 (1960)) is

        m <- e m + (q + e p) y / (k w),   p <- ((1 + e) q s + p (e^2 s + t)) / w,

    every term non-negative, so nothing cancels at tiny windows; w >= t
    keeps it finite where q^2 underflows.  A window too short for
    tanh(x/2) to leave 0 keeps the state and gives X = 0.
    """
    x = lam * dur
    t = math.tanh(0.5 * x)
    if t == 0.0:
        return state, np.zeros(n)
    m, p = (0.0, 1.0) if state is None else state
    e, q = math.exp(-x), -math.expm1(-x)
    s = 2.0 * _x_minus_2_tanh_half(x) / q / q
    w = s + t + p
    k = q / lam
    y = _normals(rng, n, k * gamma * math.sqrt(w))
    integral = y if state is None else k * m + y
    if not with_end:
        return None, integral
    g = (q + e * p) / (k * w)
    return ((g * y if state is None else e * m + g * y,
             ((1.0 + e) * q * s + p * (e * e * s + t)) / w), integral)


def _renewal_window_integrals(rng, f0, lam, gamma, dur, n, with_end=True):
    """Exact renewal draw over one window from the held values f0 (None:
    n stationary draws), returned as (f at the end, the integral):
    Exponential(1/lam) waiting times, a fresh Normal(0, Gamma^2) value at
    each event (_normals).  A pass draws only for trajectories short of
    the end, so no value is drawn that is not read, and with_end is
    ignored; a pass that draws an odd number of values reads one uniform
    it does not use."""
    val = _normals(rng, n, gamma) if f0 is None else f0.copy()
    out = np.zeros(n)
    live = np.arange(n if dur > 0 else 0)
    t = integral = np.zeros(live.size)
    while live.size:
        t_next = np.minimum(t + rng.exponential(1.0 / lam, live.size), dur)
        integral = integral + val[live] * (t_next - t)
        on = t_next < dur
        out[live[~on]] = integral[~on]
        live, t, integral = live[on], t_next[on], integral[on]
        val[live] = _normals(rng, live.size, gamma)
    return val, out


def _normals(rng, n, scale):
    """n Normal(0, scale^2) draws by the Box-Muller transform (Ann. Math.
    Stat. 29, 610 (1958)) from 2 ceil(n/2) uniforms of rng.random: the
    radius rad = sqrt(-2 scale^2 log1p(-u)), finite over u in [0, 1),
    times the cos and the sin of the angle 2 pi v - pi, taken from its
    half-angle tangent t = tan(pi (v - 1/2)) as rad cos = r (1 - t^2) and
    rad sin = r 2t with r = rad / (1 + t^2).  The angle is uniform, so
    their last-ulp accuracy does not matter, unlike a spin turn's in
    montecarlo.
    The first half is the cos half, the second the sin half; for odd n
    the last sin value is dropped.  At 8192 values it costs about 0.57 of
    rng.normal; its fixed cost of 16 numpy calls (9.4 us at 10 values,
    rng.normal 1.1 us) makes it dearer below about 1000."""
    k = (n + 1) // 2
    u = rng.random(2 * k)
    t = np.tan(np.pi * (u[k:] - 0.5))
    t2 = t * t
    r = np.sqrt(-2.0 * scale * scale * np.log1p(-u[:k])) / (1.0 + t2)
    z = np.empty(2 * k)
    np.multiply(r, 1.0 - t2, z[:k])
    np.multiply(r, t + t, z[k:])
    return z[:n]


#: kernel(rng, state, lam, gamma, dur, n, with_end=True) -> (state, integral)
_WINDOW_INTEGRALS = {NoiseKind.ORNSTEIN_UHLENBECK: _ou_window_integrals,
                     NoiseKind.RENEWAL: _renewal_window_integrals}
