"""Classical dephasing noise with exponential correlation.

Two processes share the stationary correlation C(dt) = Gamma^2 exp(-lambda|dt|):

* an Ornstein-Uhlenbeck process (Gaussian, the model under which all
  closed-form decay laws are exact), and
* a renewal process that holds a Normal(0, Gamma^2) value and redraws it
  at Poisson(lambda) event times.  Same second moments, different higher
  moments.

The module provides the three dephasing exponents as closed forms
(f1, delta_f) and as frequency-domain integrals over the Lorentzian
spectral density, which must agree.  chi_filter evaluates one rule of
uniform Gauss-Legendre panels whose node windows come by angle addition,
and estimates its error from the same rule on half the panels.

Its samplers are the two exact window kernels, one per noise kind
(_WINDOW_INTEGRALS): from the values f0 at the start of one window they
draw its phase integral and the value at its end, with no step-size
bias; consecutive windows chain the end values.  A caller that will not
read the end value says so, and the OU kernel then draws the integral
alone, with the end value integrated out.  The Monte Carlo engine draws
the phase of every delay and finite-pulse step from them.  They take the
random generator as an argument; the engine seeds one per block.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "NoiseKind", "NoiseParams", "FilterKind", "correlation", "f1", "delta_f",
    "chi_filter", "QuadratureError",
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


def correlation(p: NoiseParams, dt: float):
    """Stationary autocovariance Gamma^2 exp(-lambda |dt|)."""
    return p.gamma ** 2 * np.exp(-p.lam * np.abs(dt))


#: below this lambda tau, f1 and delta_f leave their direct forms, which
#: cancel there: from about 1e-8 f1's rounds to 0 or below, and a factor
#: (Gamma/lambda)^2 of 1e20 turns that residue into an exponent of -1e4
_SMALL_LAM_TAU = 0.05


def f1(p: NoiseParams, tau):
    """Half the variance of the phase integrated over one interval of
    length tau:  (Gamma/lambda)^2 (lambda tau + exp(-lambda tau) - 1),
    the bracket by its Taylor series to x^9 below _SMALL_LAM_TAU."""
    tau = np.asarray(tau, dtype=float)
    low = tau.min(initial=np.inf)
    if low < 0:
        raise ValueError("tau must be >= 0")
    x = p.lam * tau
    core = x + np.exp(-x) - 1.0
    if p.lam * low < _SMALL_LAM_TAU:
        s = np.minimum(x, _SMALL_LAM_TAU)     # no overflow in lanes left direct
        core = np.where(x < _SMALL_LAM_TAU, s * s * (1 / 2 - s * (1 / 6 - s * (
            1 / 24 - s * (1 / 120 - s * (1 / 720 - s * (1 / 5040 - s * (
                1 / 40320 - s / 362880))))))), core)
    out = (p.gamma / p.lam) ** 2 * core
    return out if out.ndim else float(out)


def delta_f(p: NoiseParams, tau):
    """Half the covariance between the phases of two adjacent intervals:
    (Gamma/lambda)^2 (1 - 2 exp(-lambda tau) + exp(-2 lambda tau)) / 2,
    the bracket as expm1(-lambda tau)^2 below _SMALL_LAM_TAU."""
    tau = np.asarray(tau, dtype=float)
    low = tau.min(initial=np.inf)
    if low < 0:
        raise ValueError("tau must be >= 0")
    x = p.lam * tau
    e = np.exp(-x)
    core = 1.0 - 2.0 * e + e * e
    if p.lam * low < _SMALL_LAM_TAU:
        core = np.where(x < _SMALL_LAM_TAU, np.expm1(-x) ** 2, core)
    out = 0.5 * (p.gamma / p.lam) ** 2 * core
    return out if out.ndim else float(out)


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
_MAX_PANELS = 2 ** 17     # the rule's (n, 12) arrays then hold about 12.6 MB each


def _panel_sum(half_t: float, power: int, lam: float, w_max: float, n: int) -> float:
    """12-point Gauss-Legendre sum of sin(half_t w)^power / (w^2 (w^2 + lam^2))
    over n uniform panels of [0, w_max].  Node j of panel i is i h + c_j, so
    angle addition gives its sin from 2 (n + 12) sin/cos calls in all.  The
    (n, 12) arrays are updated in place."""
    h = w_max / n
    c = 0.5 * h * (_GL_NODES + 1.0)
    start = h * np.arange(n)[:, None]
    a, b = half_t * start, half_t * c
    s = np.sin(a) * np.cos(b)
    x2 = np.cos(a) * np.sin(b)      # scratch until it holds (start + c)^2
    s += x2
    s *= s
    if power == 4:
        s *= s
    np.add(start, c, out=x2)
    x2 *= x2
    den = x2 + lam * lam
    den *= x2
    s /= den
    return float(np.sum(s @ (0.5 * h * _GL_WEIGHTS)))


def chi_filter(kind: FilterKind, p: NoiseParams, tau: float,
               target_error: float = 1e-8) -> float:
    """Decay exponent from the frequency-domain overlap of the sequence
    window with the Lorentzian noise spectrum 2 Gamma^2 lambda/(w^2+lam^2).

    Evaluated by one composite 12-point Gauss-Legendre rule on n uniform
    panels up to a cutoff of at least max(50 lam, 50/tau), extended until
    the analytic tail bound (from the 1/w^4 falloff of the integrand) meets
    target_error; the window sin(half_t w)^2 or ^4 comes by angle addition
    from the panel starts (_panel_sum).  Its error is estimated against the
    same rule on ceil(n/2) panels.  Raises QuadratureError when that
    estimate exceeds target_error (times |value|/1e5, at most 1e3, for
    exponents above 1e5) or the rule needs over _MAX_PANELS panels.
    """
    return _chi_filter_with_error(kind, p, tau, target_error)[0]


def _chi_filter_with_error(kind: FilterKind, p: NoiseParams, tau: float,
                           target_error: float) -> tuple:
    """chi_filter's (value, error estimate); the estimate is at most the
    target the value was accepted against."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tau == 0.0 or p.gamma == 0.0:
        return 0.0, 0.0
    lam = p.lam
    if kind is FilterKind.RAMSEY_LIKE:
        half_t, power, weight, mean = tau, 2, 4.0, 0.5
    elif kind is FilterKind.HALF_PERIOD:
        half_t, power, weight, mean = tau / 2, 2, 4.0, 0.5
    elif kind is FilterKind.HAHN_LIKE:
        half_t, power, weight, mean = tau / 2, 4, 16.0, 0.375
    else:
        raise ValueError(f"unknown filter kind {kind!r}")
    pref = weight * lam * p.gamma ** 2 / np.pi

    floor = max(50.0 * lam, 50.0 / tau)
    # truncation keeps the oscillatory tail remainder, ~pref/(2 half_t w^4)
    # by integration by parts, below half the target.  For tau near the
    # smallest subnormal the product underflows to 0; the floor keeps the
    # division finite and the panel budget below then refuses the rule.
    need = (pref / max(half_t * target_error, math.ulp(0.0))) ** 0.25
    w_max = max(floor, min(need, 100.0 * floor))
    # panels resolve the fastest window harmonic (2 w half_t at most a
    # half period each) and the Lorentzian knee at w ~ lam
    width = min(np.pi / (2.0 * tau), lam / 2.0, w_max / 8.0)
    n = w_max / width
    if not n <= _MAX_PANELS:       # lam tau below about 1e-3, or far above 1e3
        raise QuadratureError(f"chi_filter({kind.value}) at lam tau = {lam * tau:.3g} "
                              f"needs {n:.3g} panels, over {_MAX_PANELS}")
    n = math.ceil(n)
    rule = _panel_sum(half_t, power, lam, w_max, n)
    half = _panel_sum(half_t, power, lam, w_max, math.ceil(n / 2))
    # analytic tail: window replaced by its mean value
    tail = mean / lam ** 2 * (1.0 / w_max - (np.pi / 2 - np.arctan(w_max / lam)) / lam)
    remainder = pref / (2.0 * half_t * w_max ** 4)
    value = pref * (rule + tail)
    # 12-point panels converge far faster than halving suggests; /10 is a
    # conservative Richardson factor.  The last term is the float floor.
    err = (pref * abs(rule - half) / 10.0 + remainder
           + 1e-15 * max(1.0, abs(value)))
    # target_error bounds the error of the exponent, i.e. the relative error
    # of the decay factor exp(-value).  Past exponents of 1e5 it scales with
    # |value|, since the float floor would pass the default 1e-8 near 1e7,
    # but by at most 1e3: exponents beyond about 1e10 stay out of reach.
    target = target_error * min(max(1.0, abs(value) / 1e5), 1e3)
    if err > target:
        raise QuadratureError(
            f"chi_filter({kind.value}) did not converge: error estimate {err:.3e} "
            f"exceeds target {target:.1e}")
    return value, err


def _x_minus_2_tanh_half(x):
    """x - 2 tanh(x/2) for x >= 0, the O(x^3) core of the OU window
    variances.  The direct difference cancels: it is 1.4e-5 relative off
    at x = 1e-5 and rounds to 0 from about x = 1e-8.  Below x = 0.2 the
    Taylor series to x^13 is used instead, within 5e-15 relative of
    50-digit values; above it the direct form is within 6e-14."""
    if x >= 0.2:
        return x - 2.0 * math.tanh(0.5 * x)
    x2 = x * x
    return x * x2 * (1 / 12 - x2 * (1 / 120 - x2 * (17 / 20160 - x2 * (
        31 / 362880 - x2 * (691 / 79833600 - x2 * (5461 / 6227020800))))))


def _ou_window_integrals(rng, f0, lam, gamma, dur, with_end=True):
    """Exact OU draw over one window of length dur from the start values
    f0; returns (f at the end, the integral of f over the window), or
    (None, the integral) when with_end is false.

    Over a window T, with x = lam T and e = exp(-x), f(T) and X = int f dt
    given f(0) are jointly Gaussian (Gillespie, Phys. Rev. E 54, 2084
    (1996)): E f(T) = f(0) e, Var f(T) = Gamma^2 (1 - e^2),
    E X = f(0) (1 - e)/lam, Var X = (Gamma/lam)^2 (2 (x - 1 + e) - (1 - e)^2)
    and Cov(f(T), X) = (Gamma^2/lam) (1 - e)^2.  X given f(T) is the
    trapezoid rule with an exact weight plus an independent remainder,

        X = tanh(x/2)/lam (f(0) + f(T)) + Normal(0, 2 (Gamma/lam)^2 (x - 2 tanh(x/2))),

    two normals per window and no step bias.  Without the end value, X is
    drawn from its law given f(0) alone, one normal per window:

        X = f(0) (1 - e)/lam + Normal(0, (Gamma/lam)^2 [2 (x - 2 tanh(x/2))
                                          + tanh(x/2)^2 (1 - e^2)]),

    Var X from above as a sum of two non-negative terms (the remainder and
    the trapezoid term's share of Var f(T)), so that it keeps its digits
    at tiny windows; x - 2 tanh(x/2) comes from _x_minus_2_tanh_half.  A
    zero-length window leaves f as it is and gives X = 0.
    """
    x = lam * dur
    t = math.tanh(0.5 * x)
    remainder = 2.0 * _x_minus_2_tanh_half(x)
    if not with_end:
        x_sd = gamma / lam * math.sqrt(remainder - t * t * math.expm1(-2.0 * x))
        return None, -math.expm1(-x) / lam * f0 + rng.normal(0.0, x_sd, f0.size)
    f_sd = gamma * math.sqrt(-math.expm1(-2.0 * x))
    x_sd = gamma / lam * math.sqrt(remainder)
    f_end = f0 * math.exp(-x) + rng.normal(0.0, f_sd, f0.size)
    return f_end, t / lam * (f0 + f_end) + rng.normal(0.0, x_sd, f0.size)


def _renewal_window_integrals(rng, f0, lam, gamma, dur, with_end=True):
    """Exact renewal draw over one window from the held values f0,
    returned as (f at the end, the integral): Exponential(1/lam) waiting
    times, a fresh Normal(0, Gamma^2) value at each event.  A pass draws
    only for trajectories short of the end, so nothing is drawn that is
    not read, and with_end is ignored."""
    val = f0.copy()
    out = np.zeros(f0.size)
    live = np.arange(f0.size if dur > 0 else 0)
    t = integral = np.zeros(live.size)
    while live.size:
        t_next = np.minimum(t + rng.exponential(1.0 / lam, live.size), dur)
        integral = integral + val[live] * (t_next - t)
        on = t_next < dur
        out[live[~on]] = integral[~on]
        live, t, integral = live[on], t_next[on], integral[on]
        val[live] = rng.normal(0.0, gamma, live.size)
    return val, out


#: kernel(rng, f0, lam, gamma, dur, with_end=True) -> (f_end, integral) per
#: noise kind; f_end may be None when with_end is false
_WINDOW_INTEGRALS = {NoiseKind.ORNSTEIN_UHLENBECK: _ou_window_integrals,
                     NoiseKind.RENEWAL: _renewal_window_integrals}
