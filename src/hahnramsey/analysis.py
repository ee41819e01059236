"""Decay-envelope fitting, noise-parameter residual scans, and DC-field
sensitivity.

Fit initialization is deterministic: the fringe frequency comes from the
peak of the discrete spectrum of the detrended data, the decay constant
from the first crossing of the envelope below 1/e.  At those two the
fringe is linear in A cos phi, A sin phi and c (separable least squares:
Golub and Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)), so one weighted
linear solve starts the one bounded fit.  Curves whose detrended
spectrum peaks in the lowest nonzero bin are fitted with the bare
envelope (frequency and phase reported as 0).

The residual scan evaluates the analytic model on a (lambda, gamma) grid
and reports SSR normalized by the total sum of squares; ties at the
minimum break toward the smallest indices (row-major order).  The three
filter exponents scale as (gamma/lambda)^2 at fixed lambda tau, so one
call forms them at unit strength for every (lambda, tau), and each lambda
row is evaluated over the whole gamma grid at once.

Sensitivity follows the shot-noise readout model: with mean photon
counts u (bright) and v (dark), contrast alpha = (u-v)/(u+v) and
beta = (u+v)/2, a fringe slope d<s>/dB limits the detectable field to
deltaB = sqrt(beta) / (alpha beta |dS/dB|).  The closed form
1/(3 pi gamma_e tau alpha sqrt(beta)) packages the kinematic maximum of
that slope at the optimal tilt and neglects envelope decay, so it is a
small-tau law; the numeric estimator here keeps the decay.  The optimal
tilt needs no search: at zero bias the slope's whole tilt dependence is
cos^3 theta sin^2 theta, which peaks at OPTIMAL_THETA = arctan(sqrt(2/3))
for every noise, detuning and tau.  The bias needs no search either: the
slope is a trigonometric polynomial of degree 2 in epsilon tau, whose
stationary points are the roots of one quartic in tan(epsilon tau / 2),
so its maximum is the largest of at most five values.

scipy.optimize loads on the first fit or sensitivity call, not on import.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .analytic import (BiasParams, _bias_slope_coefficients, closed_form_signal,
                       hr_signal_derivative, signal_from_exponents)
from .montecarlo import SignalCurve
from .noise import NoiseParams, f1, filter_exponents
from .spincore import SequenceKind

__all__ = [
    "GAMMA_E_PER_GAUSS", "FitModel", "FitError", "FitInputError", "DecayFit",
    "fit_decay", "ResidualMap", "scan_noise_params", "ReadoutModel",
    "min_detectable_field", "max_bias_slope", "OPTIMAL_THETA",
    "SensitivityResult", "sensitivity",
]

# scipy.optimize takes most of the package's import time and only the fits
# use it (brentq sizes the window of the sensitivity fringe fit), so these
# names load on first access (PEP 562) and are then plain module globals.
# Callers look them up through _module at call time, so a wrapper set on
# analysis.curve_fit is honoured.
_OPTIMIZE_NAMES = ("brentq", "curve_fit")
_module = sys.modules[__name__]


def __getattr__(name):
    if name not in _OPTIMIZE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.optimize
    value = globals()[name] = getattr(scipy.optimize, name)
    return value


#: electron gyromagnetic ratio, cycles per (time unit x gauss); with time
#: in microseconds this is the NV value 2.8025 MHz/G.  Overridable.
GAMMA_E_PER_GAUSS = 2.8025

#: tilt of the steepest bias slope: at epsilon = 0 the slope is cos^3 theta
#: sin^2 theta times a factor free of theta, and d/dtheta (cos^3 sin^2) = 0
#: at 2 cos^2 theta = 3 sin^2 theta, whatever the noise, delta and tau grid.
OPTIMAL_THETA = math.atan(math.sqrt(2 / 3))


class FitModel(enum.Enum):
    GAUSSIAN_ENVELOPE = "gaussian"      # A cos(w t + phi) exp(-(t/tc)^2) + c
    PLAIN_EXPONENTIAL = "exponential"   # A exp(-t/tc) + c


class FitError(RuntimeError):
    pass


class FitInputError(FitError, ValueError):
    """Data no fit can use: too few points, or flat."""


@dataclass(frozen=True)
class DecayFit:
    tau_c: float
    tau_c_err: float
    amplitude: float
    offset: float
    frequency: float
    phase: float
    residual_norm: float

    def to_dict(self) -> dict:
        return {k: float(v) for k, v in asdict(self).items()}


def _gaussian_envelope(t, amp, w, phi, tc, c):
    return amp * np.cos(w * t + phi) * np.exp(-((t / tc) ** 2)) + c


def _gaussian_bare(t, amp, tc, c):
    return amp * np.exp(-((t / tc) ** 2)) + c


def _plain_exponential(t, amp, tc, c):
    return amp * np.exp(-t / tc) + c


# Exact Jacobians of the three models, one column per parameter.  The tc
# columns are written in x = t/tc, which the fit bounds keep at most 1e4,
# and not as t^2/tc^3, so no term overflows while the model is finite.

def _gaussian_envelope_jac(t, amp, w, phi, tc, c):
    x = t / tc
    g = np.exp(-(x ** 2))
    cos, sin = np.cos(w * t + phi), np.sin(w * t + phi)
    return np.column_stack([cos * g, -amp * sin * g * t, -amp * sin * g,
                            2 * amp * cos * g * x * x / tc, np.ones_like(t)])


def _gaussian_bare_jac(t, amp, tc, c):
    x = t / tc
    g = np.exp(-(x ** 2))
    return np.column_stack([g, 2 * amp * g * x * x / tc, np.ones_like(t)])


def _plain_exponential_jac(t, amp, tc, c):
    x = t / tc
    e = np.exp(-x)
    return np.column_stack([e, amp * e * x / tc, np.ones_like(t)])


def _freq_guess(t, y):
    """Spectrum-peak frequency of the detrended data; 0 when the peak sits
    in the lowest nonzero bin (no resolvable oscillation)."""
    d = y - y.mean()
    spec = np.abs(np.fft.rfft(d))
    if spec.size < 3:
        return 0.0
    k = int(spec[1:].argmax()) + 1
    if k <= 1:
        return 0.0
    dt = float(np.median(np.diff(t)))
    return 2 * np.pi * k / (len(t) * dt)


def _tau_c_guess(t, y):
    d = np.abs(y - y.mean())
    amp0 = d[: max(3, len(d) // 10)].max()
    if amp0 == 0:
        return t[-1] / 2
    env = np.maximum.accumulate(d[::-1])[::-1]  # upper envelope from the right
    below = np.nonzero(env < amp0 / math.e)[0]
    return float(t[below[0]]) if below.size and below[0] > 0 else float(t[-1] / 2)


def fit_decay(curve: SignalCurve, model: FitModel = FitModel.GAUSSIAN_ENVELOPE) -> DecayFit:
    """Nonlinear least-squares envelope fit of a signal curve.

    Uses curve stderrs as weights when available and each model's exact
    Jacobian.  One curve_fit call; a fringe starts from its linear
    least-squares amplitude, phase and offset, and lands within 1e-8 of
    the SSR and 1e-3 tau_c_err of the best of four blind-phase starts
    (tests/test_analysis.py).  Raises FitInputError on fewer than 6
    points or flat data, FitError when the fit fails to converge.
    """
    t = np.asarray(curve.taus, dtype=float)
    y = np.asarray(curve.means, dtype=float)
    if t.size < 6:
        raise FitInputError(f"need at least 6 points, got {t.size}")
    if np.ptp(y) < 1e-13 * max(1.0, np.abs(y).max()):
        raise FitInputError("flat data, decay constant unidentifiable")
    errs = np.asarray(curve.stderrs, dtype=float)
    sigma = errs if errs.size == t.size and (errs > 0).all() else None

    span = float(np.ptp(y))
    exponential = model is FitModel.PLAIN_EXPONENTIAL
    # every model is fitted in units of the largest tau: in the curve's unit
    # the w and tc columns scale as t and 1/t, which spoils the covariance
    # far from 1
    unit = float(t.max()) if t.max() > 0 else 1.0
    x = t / unit
    tc0 = _tau_c_guess(t, y) / unit
    w0 = 0.0 if exponential else _freq_guess(t, y) * unit
    if w0 == 0.0:
        # plain exponential, or no resolvable fringe: bare Gaussian envelope
        fn, jac = ((_plain_exponential, _plain_exponential_jac) if exponential
                   else (_gaussian_bare, _gaussian_bare_jac))
        p0 = [y[0] - y[-1], tc0, float(y[-1])]
        lo = [-10 * span - 1e-9, 1e-4, y.min() - span - 1.0]
        hi = [10 * span + 1e-9, 1e3, y.max() + span + 1.0]
    else:
        fn, jac = _gaussian_envelope, _gaussian_envelope_jac
        lo = [0.0, 0.0, -2 * np.pi, 1e-4, y.min() - span - 1.0]
        hi = [10 * span + 1e-9, np.pi / np.median(np.diff(x)), 2 * np.pi, 1e3,
              y.max() + span + 1.0]
        # least-SSR A cos phi, A sin phi and c at (w0, tc0): module docstring
        g = np.exp(-((x / tc0) ** 2))
        cols = np.column_stack([g * np.cos(w0 * x), -g * np.sin(w0 * x),
                                np.ones_like(x)])
        wts = np.ones_like(x) if sigma is None else 1.0 / sigma
        (a, b, c0), *_ = np.linalg.lstsq(cols * wts[:, None], y * wts, rcond=None)
        p0 = np.clip([math.hypot(a, b), w0, math.atan2(b, a), tc0, c0], lo, hi)
    try:
        popt, pcov = _module.curve_fit(fn, x, y, p0=p0, bounds=(lo, hi), jac=jac,
                                       sigma=sigma, absolute_sigma=sigma is not None,
                                       maxfev=20000)
    except RuntimeError as exc:
        raise FitError(f"{model.value} fit failed to converge: {exc}") from exc
    resid = fn(x, *popt) - y
    if w0 == 0.0:
        return _make_fit(popt[1], pcov[1][1], popt[0], popt[2], 0.0, 0.0, resid, y,
                         unit)
    return _make_fit(popt[3], pcov[3][3], popt[0], popt[4], popt[1], popt[2],
                     resid, y, unit)


def _make_fit(tc, tc_var, amp, c, w, phi, resid, y, unit=1.0) -> DecayFit:
    """tc, tc_var and w come in units of `unit` curve time units."""
    tss = float(((y - y.mean()) ** 2).sum())
    ssr = float((resid ** 2).sum())
    return DecayFit(
        tau_c=float(tc * unit),
        tau_c_err=float(np.sqrt(max(0.0, tc_var)) * unit),
        amplitude=float(amp),
        offset=float(c),
        frequency=float(w / unit),
        phase=float(phi),
        residual_norm=ssr / tss if tss > 0 else ssr,
    )


# ---------------------------------------------------------------------------
# residual-map scans


@dataclass
class ResidualMap:
    lambda_grid: np.ndarray
    gamma_grid: np.ndarray
    residuals: np.ndarray            # shape (len(lambda), len(gamma))
    argmin: tuple                    # (i_lambda, i_gamma)

    @property
    def best(self) -> tuple:
        return (float(self.lambda_grid[self.argmin[0]]),
                float(self.gamma_grid[self.argmin[1]]))

    def to_csv(self, path, header_comment: str | None = None) -> None:
        with open(path, "w") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            fh.write("lambda,gamma,residual\n")
            gams = [f"{gam:.17g}" for gam in self.gamma_grid]
            for lam, row in zip(self.lambda_grid, self.residuals):
                lam = f"{lam:.17g}"
                fh.writelines(f"{lam},{gam},{r:.17g}\n"
                              for gam, r in zip(gams, row.tolist()))


def scan_noise_params(data: SignalCurve, seq_kind: SequenceKind, theta: float,
                      delta: float, lambda_grid, gamma_grid) -> ResidualMap:
    """Normalized residual ||data - model||^2 / ||data - mean||^2 on a
    (lambda, gamma) grid of finite values with lambda > 0, gamma >= 0."""
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    if lambda_grid.size == 0 or gamma_grid.size == 0:
        raise ValueError("scan grids must be non-empty")
    if not (np.isfinite(lambda_grid).all() and np.isfinite(gamma_grid).all()
            and (lambda_grid > 0).all() and (gamma_grid >= 0).all()):
        raise ValueError("scan grids need finite lambda > 0 and gamma >= 0")
    taus = np.asarray(data.taus, dtype=float)
    y = np.asarray(data.means, dtype=float)
    if not (np.isfinite(taus).all() and np.isfinite(y).all()):
        raise ValueError("scan data must be finite")
    tss = float(((y - y.mean()) ** 2).sum())
    norm = tss if tss > 0 else 1.0
    res = np.empty((lambda_grid.size, gamma_grid.size))
    # the exponents at lambda tau with the factor (gamma/lam)^2 = 1, every
    # lambda row in one call
    unit = filter_exponents(NoiseParams(1.0, 1.0), lambda_grid[:, None] * taus)
    for i, lam in enumerate(lambda_grid):
        scale = (gamma_grid[:, None] / lam) ** 2
        model = signal_from_exponents(seq_kind, theta, delta,
                                      [scale * e[i] for e in unit], taus)
        res[i] = ((y - model) ** 2).sum(axis=1) / norm
    flat = np.argmin(res)   # first minimum in row-major order on ties
    return ResidualMap(lambda_grid, gamma_grid, res,
                       tuple(np.unravel_index(flat, res.shape)))


# ---------------------------------------------------------------------------
# sensitivity


@dataclass(frozen=True)
class ReadoutModel:
    """Mean photon counts per shot for the bright (u) and dark (v)
    outcomes; contrast alpha = (u-v)/(u+v), mean counts beta = (u+v)/2."""

    u: float
    v: float

    def __post_init__(self):
        if not (self.u > self.v >= 0):
            raise ValueError("need u > v >= 0")

    @property
    def alpha(self) -> float:
        return (self.u - self.v) / (self.u + self.v)

    @property
    def beta(self) -> float:
        return (self.u + self.v) / 2


@dataclass(frozen=True)
class SensitivityResult:
    delta_b_min: float
    optimal_tau: float
    optimal_theta: float
    eta: float
    t2: float


def min_detectable_field(readout: ReadoutModel, tau: float,
                         gamma_e: float = GAMMA_E_PER_GAUSS) -> float:
    """Closed-form per-shot minimum detectable field,
    1 / (3 pi gamma_e tau alpha sqrt(beta)), in gauss for gamma_e in
    cycles/(time unit x gauss)."""
    if not tau > 0:
        raise ValueError("tau must be > 0")
    if not gamma_e > 0:
        raise ValueError("gamma_e must be > 0")
    if readout.alpha <= 0 or readout.beta <= 0:
        raise ValueError("readout contrast and counts must be positive")
    return 1.0 / (3 * np.pi * gamma_e * tau * readout.alpha
                  * math.sqrt(readout.beta))


def max_bias_slope(theta: float, delta: float, noise: NoiseParams,
                   tau: float | np.ndarray):
    """max over the bias epsilon of |d<s>/d epsilon| at fixed tau; the
    slope at the steepest point of the bias fringe.

    tau is a positive float or array; the result has its shape.  With
    u = epsilon tau, a = cos theta, b = sin theta and p, q from
    analytic._bias_slope_coefficients, the slope is 2 [p (cos u - a sin u)
    + q (2 a cos 2u + b^2 sin 2u)], a trigonometric polynomial of degree 2
    in u, so its maximum is exact: in t = tan(u/2) the stationary points
    are the real roots of the quartic

        (p a + 2 q b^2) t^4 + (16 a q - 2 p) t^3 - 12 q b^2 t^2
            - (2 p + 16 a q) t + (2 q b^2 - p a) = 0,

    and u = pi is its root at t = infinity.  The slope is evaluated at
    u = 2 arctan(Re t_k) for every root t_k (a double root may round into
    a complex pair) and at u = pi, and the largest |slope| is kept.
    """
    tau = np.asarray(tau, dtype=float)
    if (tau <= 0).any():
        raise ValueError("tau must be > 0")
    a, b2 = math.cos(theta), math.sin(theta) ** 2
    p, q = _bias_slope_coefficients(theta, delta, noise, tau)
    us = np.full((tau.size, 5), np.pi)   # per tau: the roots' u, then pi
    for row, pk, qk in zip(us, np.ravel(p), np.ravel(q)):
        roots = np.roots([pk * a + 2 * qk * b2, 16 * a * qk - 2 * pk,
                          -12 * qk * b2, -2 * pk - 16 * a * qk, 2 * qk * b2 - pk * a])
        row[:roots.size] = 2 * np.arctan(roots.real)
    col = tau[..., None]
    us = us.reshape(tau.shape + (5,))
    out = np.abs(hr_signal_derivative(theta, delta, BiasParams(us / col),
                                      noise, col)).max(axis=-1)
    return out if out.ndim else float(out)


def sensitivity(noise: NoiseParams, readout: ReadoutModel,
                theta: float | None = None,
                gamma_e: float = GAMMA_E_PER_GAUSS) -> SensitivityResult:
    """DC-field sensitivity at the optimal operating point.

    theta defaults to OPTIMAL_THETA, the tilt of the steepest bias slope.
    Picks, from 60 delays over [0.1, 10] / lam, the tau maximizing
    slope-per-sqrt-time (the exact max over bias, decay included,
    evaluated on a fringe peak; one max_bias_slope call for all 60) and
    reports the closed-form per-shot field floor there,
    min_detectable_field at optimal_tau.  That floor is the
    optimal-tilt law: it does not follow the bias slope of a given theta.
    The coherence time t2 comes from a decay-envelope fit of the
    oscillating analytic fringe curve on the total-duration axis, and
    eta = 1/(3 pi gamma_e alpha sqrt(beta t2)) is the field noise per unit
    sqrt(bandwidth), with the 3 pi factor inherited from the per-shot
    formula (a convention, not a derived constant).
    """
    if noise.gamma <= 0:
        raise ValueError("sensitivity needs a dephasing strength gamma > 0")
    if theta is None:
        theta = OPTIMAL_THETA
    tau_grid = np.linspace(0.1, 10.0, 60) / noise.lam
    # delta = 0 puts every tau on a fringe peak (cos(delta tau) = 1)
    slopes = max_bias_slope(theta, 0.0, noise, tau_grid)
    objective = slopes / np.sqrt(2 * tau_grid)
    k = int(objective.argmax())
    tau_star = float(tau_grid[k])
    db = min_detectable_field(readout, tau_star, gamma_e)
    fit = _fringe_envelope_fit(theta, noise)
    eta = 1.0 / (3 * np.pi * gamma_e * readout.alpha
                 * math.sqrt(readout.beta * fit.tau_c))
    return SensitivityResult(
        delta_b_min=db,
        optimal_tau=tau_star,
        optimal_theta=float(theta),
        eta=eta,
        t2=fit.tau_c,
    )


def _fringe_envelope_fit(theta: float, noise: NoiseParams) -> DecayFit:
    """Coherence time of the detuned-echo fringe: fit the oscillating
    analytic curve on the total-duration axis over a window scaled to
    the half-window decay scale (where exp(-f1) reaches 1/e)."""
    # F1 grows like gamma^2 tau / lam at long times, so this upper
    # bracket always clears the 1/e crossing
    hi = 10.0 * (noise.lam / noise.gamma ** 2 + 1.0 / noise.lam)
    tau_e = _module.brentq(lambda t: f1(noise, t) - 1.0, 1e-12, hi)
    taus = np.linspace(tau_e / 60, 2.2 * tau_e, 130)
    delta_fit = 8 * 2 * np.pi / (2.2 * tau_e)   # ~8 fringes in the window
    y = np.asarray(closed_form_signal(SequenceKind.HAHN_RAMSEY, theta,
                                      delta_fit, noise, taus))
    return fit_decay(SignalCurve(2 * taus, y, np.zeros_like(taus), 0))
