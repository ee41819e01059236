"""Quadrature oracle of the filter exponents, independent of the closed
forms in noise.filter_exponents: the overlap of each filter window with
the Lorentzian spectral density 2 Gamma^2 lam / (w^2 + lam^2), by one
composite 12-point Gauss-Legendre rule on uniform panels and an analytic
tail past its cutoff.  Beside it, the textbook noise laws: the
correlation function and the exponents from F1 and dF.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

from hahnramsey.noise import FilterKind, f1

_NODES, _WEIGHTS = leggauss(12)
TARGET_ERROR = 1e-8     # absolute, on the exponent
# per window sin(half_t w)^power: half_t / tau, power, the weight of the
# overlap and the window's mean value
_WINDOWS = {FilterKind.RAMSEY_LIKE: (1.0, 2, 4.0, 0.5),
            FilterKind.HALF_PERIOD: (0.5, 2, 4.0, 0.5),
            FilterKind.HAHN_LIKE: (0.5, 4, 16.0, 0.375)}


def chi_filter(kind, p, tau, refine=1):
    """Exponent of the window of `kind` at tau, within about TARGET_ERROR.

    The cutoff is at least max(50 lam, 50/tau), raised (up to 100-fold)
    until the oscillating tail's remainder, ~pref/(2 half_t w^4) by
    integration by parts, meets the target; past it the window is
    replaced by its mean.  Panels resolve the fastest window harmonic and
    the Lorentzian knee at w ~ lam; `refine` multiplies their count."""
    if tau == 0.0 or p.gamma == 0.0:
        return 0.0
    frac, power, weight, mean = _WINDOWS[kind]
    half_t, lam = frac * tau, p.lam
    pref = weight * lam * p.gamma ** 2 / np.pi
    floor = max(50.0 * lam, 50.0 / tau)
    need = (pref / (half_t * TARGET_ERROR)) ** 0.25
    w_max = max(floor, min(need, 100.0 * floor))
    width = min(np.pi / (2.0 * tau), lam / 2.0, w_max / 8.0)
    n = refine * int(np.ceil(w_max / width))
    edges = np.linspace(0.0, w_max, n + 1)
    start, h = edges[:-1, None], np.diff(edges)[:, None]
    w = (start + 0.5 * h * (_NODES + 1.0)).ravel()
    rule = (np.sin(half_t * w) ** power / (w * w * (w * w + lam * lam))
            @ (0.5 * h * _WEIGHTS).ravel())
    tail = mean / lam ** 2 * (1.0 / w_max - (np.pi / 2 - np.arctan(w_max / lam)) / lam)
    return pref * (rule + tail)


def correlation(p, dt):
    """Stationary autocovariance Gamma^2 exp(-lam |dt|)."""
    return p.gamma ** 2 * np.exp(-p.lam * np.abs(dt))


def delta_f(p, tau):
    """dF, half the covariance between the phases of two adjacent
    intervals of length tau: (Gamma/lam)^2 expm1(-lam tau)^2 / 2."""
    m = np.expm1(-p.lam * np.asarray(tau, dtype=float))
    return 0.5 * (p.gamma / p.lam) ** 2 * (m * m)


def textbook_exponents(p, tau):
    """The exponents in FilterKind order as 2 (F1 + dF), F1 and
    2 (F1 - dF), which cancels at small lam tau."""
    F1, dF = f1(p, tau), delta_f(p, tau)
    return 2 * (F1 + dF), F1, 2 * (F1 - dF)
