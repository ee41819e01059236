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
non-negative terms in x = lambda tau, so none cancels at small x.  The
dephasing integrals f1 (the half-period exponent) and delta_f (half the
gap between the Ramsey-like and Hahn-like exponents) are read from it.

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

__all__ = [
    "NoiseKind", "NoiseParams", "FilterKind", "correlation", "f1", "delta_f",
    "filter_exponent", "filter_exponents",
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


class FilterKind(enum.Enum):
    #: sin^2(w tau) window; full-window free-precession decay, 2 (f1 + delta_f)
    RAMSEY_LIKE = "ramsey_like"
    #: sin^2(w tau / 2) window; half-window decay, f1
    HALF_PERIOD = "half_period"
    #: sin^4(w tau / 2) window; refocused (echo) decay, 2 (f1 - delta_f)
    HAHN_LIKE = "hahn_like"


def _lam_tau(p: NoiseParams, tau):
    """x = lambda tau as a float array, for tau >= 0."""
    tau = np.asarray(tau, dtype=float)
    if tau.min(initial=np.inf) < 0:
        raise ValueError("tau must be >= 0")
    return p.lam * tau


def _float_or_array(out):
    return out if out.ndim else float(out)


def filter_exponents(p: NoiseParams, tau) -> tuple:
    """Decay exponents of the three filter windows at tau (a float or an
    array; each result has its shape), in FilterKind order.

    With x = lambda tau, g = x - 2 tanh(x/2) (by a series of positive
    terms below x = 2), t = tanh(x/2) and m = expm1(-x), each is
    (Gamma/lambda)^2 times a sum of non-negative terms:

        Ramsey-like  2 (f1 + delta_f) = 2 f1 + m^2
        half-period  f1               = (g + x t) / (1 + t)   (= x + m)
        Hahn-like    2 (f1 - delta_f) = 2 g + t m^2

    so nothing cancels at small x, where x + e^-x - 1 and 2 (f1 - delta_f)
    lose every digit.  Over x in [1e-100, 1e24] each is within 1e-15
    relative of 50-digit values."""
    x = _lam_tau(p, tau)
    t, m, g = np.tanh(0.5 * x), np.expm1(-x), _x_minus_2_tanh_half(x)
    half = (g + x * t) / (1.0 + t)
    scale = (p.gamma / p.lam) ** 2
    return tuple(_float_or_array(scale * e)
                 for e in (2.0 * half + m * m, half, 2.0 * g + t * m * m))


def filter_exponent(kind: FilterKind, p: NoiseParams, tau):
    """The exponent of the filter window `kind` from filter_exponents."""
    return filter_exponents(p, tau)[list(FilterKind).index(kind)]


def f1(p: NoiseParams, tau):
    """Half the variance of the phase integrated over one interval of
    length tau, (Gamma/lambda)^2 (lambda tau + exp(-lambda tau) - 1): the
    half-period exponent."""
    return filter_exponents(p, tau)[1]


def delta_f(p: NoiseParams, tau):
    """Half the covariance between the phases of two adjacent intervals,
    (Gamma/lambda)^2 expm1(-lambda tau)^2 / 2."""
    m = np.expm1(-_lam_tau(p, tau))
    return _float_or_array(0.5 * (p.gamma / p.lam) ** 2 * (m * m))


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
    [1e-100, 1e3] it is within 6e-16 relative of 50-digit values."""
    y = 0.5 * np.minimum(x, 2.0)
    y2 = y * y
    total = 0.0
    for c in _X_MINUS_2_TANH_HALF_TERMS:
        total = total * y2 + c
    return _float_or_array(np.where(x < 2.0, 2.0 * y * y2 * total / np.cosh(y),
                                    x - 2.0 * np.tanh(0.5 * x)))


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
