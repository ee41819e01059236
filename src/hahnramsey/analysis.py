"""Decay-envelope fitting, noise-parameter residual scans, and DC-field
sensitivity.

Fit initialization is deterministic: the fringe frequency comes from the
peak of the discrete spectrum of the detrended data, the decay constant
from the first crossing of the envelope below 1/e, amplitude and offset
from the data range.  Curves whose detrended spectrum peaks in the
lowest nonzero bin are treated as non-oscillating and fitted with the
bare envelope (frequency and phase reported as 0).

The residual scan evaluates the analytic model on a (lambda, gamma) grid
and reports SSR normalized by the total sum of squares; ties at the
minimum break toward the smallest indices (row-major order).  Both
exponents scale as (gamma/lambda)^2 at fixed lambda, so each lambda row
is evaluated over the whole gamma grid at once.

Sensitivity follows the shot-noise readout model: with mean photon
counts u (bright) and v (dark), contrast alpha = (u-v)/(u+v) and
beta = (u+v)/2, a fringe slope d<s>/dB limits the detectable field to
deltaB = sqrt(beta) / (alpha beta |dS/dB|).  The closed form
1/(3 pi gamma_e tau alpha sqrt(beta)) packages the kinematic maximum of
that slope at the optimal tilt and neglects envelope decay, so it is a
small-tau law; the numeric estimator here keeps the decay.  Its searches
are array passes: the tilt grid is one closed-form call against the tau
grid, and the bias grids of all delays are one (tau x bias) call whose
maxima are refined together by Newton steps in epsilon tau.

scipy.optimize loads on the first fit or sensitivity call, not on import.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .analytic import (BiasParams, hahn_ramsey_signal, hr_signal_derivative,
                       signal_from_exponents)
from .montecarlo import SignalCurve
from .noise import NoiseParams, delta_f, f1
from .spincore import SequenceKind

__all__ = [
    "GAMMA_E_PER_GAUSS", "FitModel", "FitError", "FitInputError", "DecayFit",
    "fit_decay", "ResidualMap", "scan_noise_params", "ReadoutModel",
    "min_detectable_field", "max_bias_slope", "optimal_theta",
    "SensitivityResult", "sensitivity",
]

# scipy.optimize takes most of the package's import time and only the fits
# and the sensitivity search use it, so these names load on first access
# (PEP 562) and are then plain module globals.  Callers look them up through
# _module at call time, so a wrapper set on analysis.curve_fit is honoured.
_OPTIMIZE_NAMES = ("brentq", "curve_fit", "minimize_scalar")
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

    Uses curve stderrs as weights when available.  Raises FitInputError
    on fewer than 6 points or flat data, FitError when every restart
    fails to converge.
    """
    t = np.asarray(curve.taus, dtype=float)
    y = np.asarray(curve.means, dtype=float)
    if t.size < 6:
        raise FitInputError(f"need at least 6 points, got {t.size}")
    if np.ptp(y) < 1e-13 * max(1.0, np.abs(y).max()):
        raise FitInputError("flat data, decay constant unidentifiable")
    sigma = None
    errs = np.asarray(curve.stderrs, dtype=float)
    if errs.size == t.size and (errs > 0).all():
        sigma = errs

    span = float(np.ptp(y))
    amp0 = span / 2
    c0 = float(y.mean())
    tc0 = _tau_c_guess(t, y)
    tmax = float(t.max()) if t.max() > 0 else 1.0

    exponential = model is FitModel.PLAIN_EXPONENTIAL
    w0 = 0.0 if exponential else _freq_guess(t, y)
    if w0 == 0.0:
        # plain exponential, or no resolvable fringe: bare Gaussian envelope
        fn = _plain_exponential if exponential else _gaussian_bare
        p0 = [y[0] - y[-1], tc0, float(y[-1])]
        lo = [-10 * span - 1e-9, tmax * 1e-4, y.min() - span - 1.0]
        hi = [10 * span + 1e-9, tmax * 1e3, y.max() + span + 1.0]
        try:
            popt, pcov = _module.curve_fit(fn, t, y, p0=p0, bounds=(lo, hi),
                                           sigma=sigma,
                                           absolute_sigma=sigma is not None,
                                           maxfev=20000)
        except RuntimeError as exc:
            raise FitError(f"{model.value} fit failed to converge: {exc}") from exc
        resid = fn(t, *popt) - y
        return _make_fit(popt[1], pcov[1][1], popt[0], popt[2], 0.0, 0.0, resid, y)

    dt = float(np.median(np.diff(t)))
    lo = [0.0, 0.0, -2 * np.pi, tmax * 1e-4, y.min() - span - 1.0]
    hi = [10 * span + 1e-9, np.pi / dt, 2 * np.pi, tmax * 1e3, y.max() + span + 1.0]
    best = None
    failures = []
    for phi0 in (0.0, np.pi / 2, np.pi, -np.pi / 2):
        p0 = [max(amp0, 1e-12), w0, phi0, tc0, c0]
        try:
            popt, pcov = _module.curve_fit(_gaussian_envelope, t, y, p0=p0,
                                           bounds=(lo, hi), sigma=sigma,
                                           absolute_sigma=sigma is not None,
                                           maxfev=20000)
        except RuntimeError as exc:
            failures.append(str(exc))
            continue
        ssr = float(((_gaussian_envelope(t, *popt) - y) ** 2).sum())
        if best is None or ssr < best[2]:
            best = (popt, pcov, ssr)
    if best is None:
        raise FitError("all fit restarts failed: " + "; ".join(failures))
    popt, pcov, _ = best
    resid = _gaussian_envelope(t, *popt) - y
    return _make_fit(popt[3], pcov[3][3], popt[0], popt[4], popt[1], popt[2],
                     resid, y)


def _make_fit(tc, tc_var, amp, c, w, phi, resid, y) -> DecayFit:
    tss = float(((y - y.mean()) ** 2).sum())
    ssr = float((resid ** 2).sum())
    return DecayFit(
        tau_c=float(tc),
        tau_c_err=float(np.sqrt(max(0.0, tc_var))),
        amplitude=float(amp),
        offset=float(c),
        frequency=float(w),
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
    for i, lam in enumerate(lambda_grid):
        # exponents at gamma = lam carry the factor (gamma/lam)^2 = 1
        unit = NoiseParams(lam, lam)
        scale = (gamma_grid[:, None] / lam) ** 2
        model = signal_from_exponents(seq_kind, theta, delta,
                                      scale * f1(unit, taus),
                                      scale * delta_f(unit, taus), taus)
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
                   tau: float | np.ndarray, n_grid: int = 4001):
    """max over the bias epsilon of |d<s>/d epsilon| at fixed tau; the
    slope at the steepest point of the bias fringe.

    tau is a positive float or array; the result has its shape.  The
    n_grid-point bias grid of every tau is evaluated in one call, and the
    grid maximum is refined by Newton steps within its neighbouring grid
    points (_refine_bias_peak), which wrap around at u = +-pi.  Where
    refining does not raise the slope the grid value is kept.
    """
    tau = np.asarray(tau, dtype=float)
    if (tau <= 0).any():
        raise ValueError("tau must be > 0")
    us = np.linspace(-np.pi, np.pi, n_grid)   # epsilon*tau is 2pi-periodic
    col = tau[..., None]
    vals = np.abs(hr_signal_derivative(theta, delta, BiasParams(us / col),
                                       noise, col))
    k = vals.argmax(axis=-1)
    grid_best = np.take_along_axis(vals, k[..., None], axis=-1)[..., 0]
    h = us[1] - us[0]     # u = -pi and pi are the same bias
    wrapped = np.concatenate([[us[0] - h], us, [us[-1] + h]])
    u = _refine_bias_peak(theta, delta, noise, tau, us[k], wrapped[k],
                          wrapped[k + 2])
    refined = np.abs(hr_signal_derivative(theta, delta, BiasParams(u / tau),
                                          noise, tau))
    out = np.maximum(refined, grid_best)
    return out if out.ndim else float(out)


def _refine_bias_peak(theta, delta, noise, tau, u, lo, hi):
    """Two Newton steps toward the stationary point of the bias slope in
    u = epsilon tau, each clipped to [lo, hi].

    From the epsilon derivatives of the two bias-dependent terms of
    analytic._detuned_echo_terms, the slope is
        p (cos u - a sin u) + q (2 a cos 2u + b^2 sin 2u),
    p = -4 a^3 b^2 tau cos(delta tau) exp(-F1),
    q = -2 a^2 b^2 tau exp(-2 (F1 + dF)), with a = cos theta, b = sin theta.
    """
    a, b = math.cos(theta), math.sin(theta)
    F1, dF = f1(noise, tau), delta_f(noise, tau)
    p = -4 * a ** 3 * b ** 2 * tau * np.cos(delta * tau) * np.exp(-F1)
    q = -2 * a ** 2 * b ** 2 * tau * np.exp(-2.0 * (F1 + dF))
    for _ in range(2):    # quadratic convergence from a grid point
        c1, s1, c2, s2 = np.cos(u), np.sin(u), np.cos(2 * u), np.sin(2 * u)
        d1 = -p * (s1 + a * c1) + q * (2 * b ** 2 * c2 - 4 * a * s2)
        d2 = -p * (c1 - a * s1) - q * (8 * a * c2 + 4 * b ** 2 * s2)
        step = np.divide(d1, d2, out=np.zeros_like(d1), where=d2 != 0)
        u = np.clip(u - step, lo, hi)
    return u


def optimal_theta(noise: NoiseParams, delta: float, tau_grid,
                  n_grid: int = 181) -> float:
    """Tilt maximizing the bias slope |d<s>/d epsilon| at epsilon 0 over
    the tau grid; ties break toward smaller theta.  The tilt grid is one
    (n_grid x tau) call; its maximum is refined by a bounded scalar
    search between the neighbouring grid tilts."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.size == 0 or (tau_grid <= 0).any():
        raise ValueError("tau_grid must be non-empty and positive")
    thetas = np.linspace(1e-4, np.pi / 2 - 1e-4, n_grid)

    def objective(th):
        return float(np.max(np.abs(hr_signal_derivative(
            th, delta, BiasParams(0.0), noise, tau_grid))))

    vals = np.abs(hr_signal_derivative(thetas[:, None], delta, BiasParams(0.0),
                                       noise, tau_grid)).max(axis=1)
    k = int(vals.argmax())           # first maximum = smallest theta on ties
    lo = thetas[max(0, k - 1)]
    hi = thetas[min(n_grid - 1, k + 1)]
    ref = _module.minimize_scalar(lambda th: -objective(th), bounds=(lo, hi),
                                  method="bounded", options={"xatol": 1e-10})
    return float(ref.x) if -ref.fun >= vals[k] else float(thetas[k])


def sensitivity(noise: NoiseParams, readout: ReadoutModel,
                theta: float | None = None,
                gamma_e: float = GAMMA_E_PER_GAUSS,
                tau_grid=None) -> SensitivityResult:
    """DC-field sensitivity at the optimal operating point.

    Picks tau maximizing slope-per-sqrt-time (max over bias, decay
    included, evaluated on a fringe peak; one max_bias_slope call for the
    whole tau grid) and reports the closed-form
    per-shot field floor there.  The coherence time t2 comes from a
    decay-envelope fit of the oscillating analytic fringe curve on the
    total-duration axis, and eta = 1/(3 pi gamma_e alpha sqrt(beta t2))
    is the field noise per unit sqrt(bandwidth), with the 3 pi factor
    inherited from the per-shot formula (a convention, not a derived
    constant).
    """
    if noise.gamma <= 0:
        raise ValueError("sensitivity needs a dephasing strength gamma > 0")
    if theta is None:
        theta = optimal_theta(noise, 0.0, np.linspace(0.2, 2.0, 10) / noise.lam)
    if tau_grid is None:
        tau_grid = np.linspace(0.1, 10.0, 60) / noise.lam
    tau_grid = np.asarray(tau_grid, dtype=float)
    # delta = 0 puts every tau on a fringe peak (cos(delta tau) = 1)
    slopes = max_bias_slope(theta, 0.0, noise, tau_grid, n_grid=801)
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
    y = np.asarray(hahn_ramsey_signal(theta, delta_fit, noise, taus))
    return fit_decay(SignalCurve(2 * taus, y, np.zeros_like(taus), 0))
