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
minimum break toward the smallest indices (row-major order).  The model
is a constant plus, per filter window it reads, a tau-only amplitude
times exp(-(gamma/lambda)^2 e_k(lambda tau)), so the amplitudes are
formed once, and the exponents e_k at unit strength for a buffer's worth
of (lambda, tau) pairs at a time.  The cells are evaluated a chunk at a
time, whole lambda rows while one fits a buffer and a part of one row
otherwise, with the residual taken by einsum.  Each call allocates its
chunk-shaped buffers once: two work buffers, the data less the constant
and each amplitude that varies with tau broadcast to a chunk's shape (so
every pass over a chunk is contiguous), each under 128 KiB; so the memory
of a scan follows its buffers, not its cells times taus.

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

The fits use numpy only: a bounded Levenberg-Marquardt and a Newton root.
The sample spacing's median is taken by _median, bit for bit np.median,
because np.median's first call imports numpy.ma (about 10 ms and 1.3 MiB
resident) for a NaN check that a sorted array makes by its last value.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._datafile import write_grid_csv as _write_grid_csv
from .analytic import (BiasParams, _bias_slope_coefficients, _decay_amplitudes,
                       closed_form_signal, hr_signal_derivative)
from .montecarlo import SignalCurve
from .noise import NoiseParams, f1, filter_exponents
from .spincore import SequenceKind

__all__ = [
    "GAMMA_E_PER_GAUSS", "FitModel", "FitError", "FitInputError", "DecayFit",
    "fit_decay", "ResidualMap", "scan_noise_params", "ReadoutModel",
    "min_detectable_field", "max_bias_slope", "OPTIMAL_THETA",
    "SensitivityResult", "sensitivity",
]

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
    warnings: tuple = ()   # one per parameter left on a fit bound

    def to_dict(self) -> dict:
        return {k: float(v) for k, v in asdict(self).items() if k != "warnings"}


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


def _median(x):
    """np.median of a 1-d float array, bit for bit: the middle of the
    sorted values, or half the sum of the two middles, each added to 0.0
    first as np.mean does (so -0.0 reads 0.0), and NaN if any value is
    NaN.  np.median imports numpy.ma on its first call."""
    s = np.sort(x)
    k = s.size // 2
    if np.isnan(s[-1]):
        return s[-1]
    return 0.0 + s[k] if s.size % 2 else (0.0 + s[k - 1] + s[k]) / 2


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
    dt = float(_median(np.diff(t)))
    return 2 * np.pi * k / (len(t) * dt)


def _tau_c_guess(t, y):
    d = np.abs(y - y.mean())
    amp0 = d[: max(3, len(d) // 10)].max()
    if amp0 == 0:
        return t[-1] / 2
    env = np.maximum.accumulate(d[::-1])[::-1]  # upper envelope from the right
    below = np.nonzero(env < amp0 / math.e)[0]
    return float(t[below[0]]) if below.size and below[0] > 0 else float(t[-1] / 2)


#: a fit ends at a taken step that lowers the SSR by at most this fraction
#: (scipy's ftol): the rounding floor's last bits follow the data's
_FTOL = 1e-8
_MAX_STEPS = 1000   # per fit, or per fringe-window root (at most 86 Newton steps)


def curve_fit(fn, x, y, p0, bounds, jac, sigma=None):
    """Bounded Levenberg-Marquardt fit of fn(x, *p) to y: (popt, pcov).  A
    step solves (J^T J + mu D) dp = -J^T r, r = (fn - y) / sigma, D the
    running max of diag(J^T J), clipped to bounds; mu falls tenfold after
    a step that lowers the SSR, else rises tenfold.  pcov is scipy's: the
    SVD pseudo-inverse of J^T J, times SSR / (m - n) if sigma is None.
    Raises FitError after _MAX_STEPS steps, unless the fit then has a
    parameter pinned to a bound, one whose projected gradient vanishes
    because J^T r pushes it out of the box: the others may walk a flat
    valley beside that bound until the cap, and fit_decay flags it."""
    w = np.ones_like(y) if sigma is None else 1.0 / sigma
    p, mu, d = np.clip(p0, *bounds), 1e-3, 0.0
    r = (fn(x, *p) - y) * w
    jw, ssr = jac(x, *p) * w[:, None], r @ r
    for _ in range(_MAX_STEPS):
        a = jw.T @ jw
        d = np.maximum(d, np.diag(a))
        trial = np.clip(p - np.linalg.lstsq(a + mu * np.diag(d), jw.T @ r)[0], *bounds)
        if (trial == p).all():   # the step rounds to no move
            break
        rt = (fn(x, *trial) - y) * w
        if not rt @ rt < ssr:
            mu *= 10
            continue
        p, r, drop, ssr, mu = trial, rt, ssr - rt @ rt, rt @ rt, mu / 10
        jw = jac(x, *p) * w[:, None]
        if drop <= _FTOL * (ssr + drop):
            break
    else:
        g, (lo, hi) = jw.T @ r, np.asarray(bounds, dtype=float)
        if not (((p == lo) & (g > 0)) | ((p == hi) & (g < 0))).any():
            raise FitError(f"gave up after {_MAX_STEPS} steps")
    _, s, vt = np.linalg.svd(jw, full_matrices=False)
    keep = s > np.finfo(float).eps * max(jw.shape) * s[0]
    pcov = (vt[keep].T / s[keep] ** 2) @ vt[keep]
    return p, pcov * (ssr / (y.size - p.size) if sigma is None else 1.0)


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
        hi = [10 * span + 1e-9, np.pi / _median(np.diff(x)), 2 * np.pi, 1e3,
              y.max() + span + 1.0]
        # least-SSR A cos phi, A sin phi and c at (w0, tc0): module docstring
        g = np.exp(-((x / tc0) ** 2))
        cols = np.column_stack([g * np.cos(w0 * x), -g * np.sin(w0 * x),
                                np.ones_like(x)])
        wts = np.ones_like(x) if sigma is None else 1.0 / sigma
        (a, b, c0), *_ = np.linalg.lstsq(cols * wts[:, None], y * wts, rcond=None)
        p0 = [math.hypot(a, b), w0, math.atan2(b, a), tc0, c0]
    try:
        popt, pcov = curve_fit(fn, x, y, p0, (lo, hi), jac, sigma)
    except RuntimeError as exc:
        raise FitError(f"{model.value} fit failed to converge: {exc}") from exc
    resid = fn(x, *popt) - y
    names = (("amplitude", "tau_c", "offset") if w0 == 0.0
             else ("amplitude", "frequency", "phase", "tau_c", "offset"))
    warnings = tuple(f"{n} ended on a fit bound: it and its error are no fit result"
                     for n, v, a, b in zip(names, popt, lo, hi) if v in (a, b))
    if w0 == 0.0:
        return _make_fit(popt[1], pcov[1][1], popt[0], popt[2], 0.0, 0.0, resid, y,
                         unit, warnings)
    return _make_fit(popt[3], pcov[3][3], popt[0], popt[4], popt[1], popt[2],
                     resid, y, unit, warnings)


def _make_fit(tc, tc_var, amp, c, w, phi, resid, y, unit=1.0, warnings=()) -> DecayFit:
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
        warnings=warnings,
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
        _write_grid_csv(path, "lambda,gamma,residual", self.lambda_grid,
                        self.gamma_grid, self.residuals,
                        [header_comment] if header_comment else [])


#: bytes in each of the scan's chunk-shaped buffers of gamma x tau cells,
#: whole lambda rows while one fits and a part of one row otherwise (4 rows
#: of the benchmark's 101 x 40): the two work buffers, the data less the
#: constant, and one per amplitude that varies with tau (one for ramsey,
#: none for hahn_echo, three for hahn_ramsey), so at most six.  Each is
#: under glibc's 128 KiB mmap threshold, so it comes from the heap and not
#: from a mapping of its own
_SCAN_BUFFER_BYTES = 127 * 2 ** 10


def scan_noise_params(data: SignalCurve, seq_kind: SequenceKind, theta: float,
                      delta: float, lambda_grid, gamma_grid) -> ResidualMap:
    """Normalized residual ||data - model||^2 / ||data - mean||^2 on a
    (lambda, gamma) grid of finite values with lambda > 0, gamma >= 0, for
    non-empty finite data."""
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    if lambda_grid.size == 0 or gamma_grid.size == 0:
        raise ValueError("scan grids must be non-empty")
    if not (np.isfinite(lambda_grid).all() and np.isfinite(gamma_grid).all()
            and (lambda_grid > 0).all() and (gamma_grid >= 0).all()):
        raise ValueError("scan grids need finite lambda > 0 and gamma >= 0")
    taus = np.asarray(data.taus, dtype=float)
    y = np.asarray(data.means, dtype=float)
    if taus.size == 0 or not (np.isfinite(taus).all() and np.isfinite(y).all()):
        raise ValueError("scan data must be non-empty and finite")
    tss = float(((y - y.mean()) ** 2).sum())
    constant, amplitudes = _decay_amplitudes(seq_kind, theta, delta, taus)
    cells = max(1, _SCAN_BUFFER_BYTES // (8 * taus.size))
    rows, cols = max(1, cells // gamma_grid.size), min(cells, gamma_grid.size)
    # lambda rows per call of filter_exponents: a buffer's worth of taus
    block = cells // rows * rows
    shape = (rows, cols, taus.size)
    diff = np.empty(shape)
    term = np.empty_like(diff)
    # the data less the constant, and each amplitude that varies with tau,
    # broadcast once to a chunk's shape, so that their passes are contiguous;
    # a window is (its index in FilterKind order, its amplitude)
    rest = np.broadcast_to(y - constant, shape).copy()
    windows = [(k, np.broadcast_to(a, shape).copy() if np.ndim(a) else a)
               for k, a in enumerate(amplitudes) if a is not None]
    res = np.empty((lambda_grid.size, gamma_grid.size))
    for top in range(0, lambda_grid.size, block):
        # the exponents at lambda tau with the factor (gamma/lam)^2 = 1
        unit = filter_exponents(NoiseParams(1.0, 1.0),
                                lambda_grid[top:top + block, None] * taus)
        for start in range(top, min(top + block, lambda_grid.size), rows):
            lam = lambda_grid[start:start + rows, None]
            for first in range(0, gamma_grid.size, cols):
                gamma = gamma_grid[first:first + cols]
                # each exponent is (gamma/lam)^2 times its unit value
                minus_scale = -(gamma / lam) ** 2
                chunk = np.s_[:len(lam), :len(gamma)]
                d, t = diff[chunk], term[chunk]
                for n, (k, a) in enumerate(windows):
                    # the outer product, one multiply per element; einsum
                    # adds it to 0, which turns -0 to +0, and exp maps
                    # both to 1
                    np.einsum("ij,ik->ijk", minus_scale,
                              unit[k][start - top:start - top + len(lam)], out=t)
                    np.exp(t, out=t)
                    t *= a[chunk] if np.ndim(a) else a
                    if n:
                        d -= t
                    else:
                        np.subtract(rest[chunk], t, out=d)
                np.einsum("ijk,ijk->ij", d, d,
                          out=res[start:start + rows, first:first + cols])
    res /= tss if tss > 0 else 1.0
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


def _stacked_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real parts of np.roots of every row of coeffs (n, d + 1), from one
    np.linalg.eigvals call per distinct span of nonzero coefficients (one
    in practice) on the companion matrices that np.roots builds, so each
    row's roots are its np.roots bit for bit: leading zeros lower the
    degree, trailing zeros are roots 0 and a zero row has none.  Each row
    holds its roots in np.roots order, padded with inf to d columns."""
    n, width = coeffs.shape
    out = np.full((n, width - 1), np.inf)
    nonzero = coeffs != 0
    live = nonzero.any(axis=1)
    firsts = nonzero.argmax(axis=1)
    stops = width - nonzero[:, ::-1].argmax(axis=1)
    for first, stop in set(zip(firsts[live].tolist(), stops[live].tolist())):
        rows = live & (firsts == first) & (stops == stop)
        c = coeffs[rows, first:stop]
        deg = stop - first - 1
        if deg > 0:
            companion = np.zeros((len(c), deg, deg))
            companion[:, 1:, :-1] = np.eye(deg - 1)
            companion[:, 0, :] = -c[:, 1:] / c[:, :1]
            out[rows, :deg] = np.linalg.eigvals(companion).real
        out[rows, deg:width - 1 - first] = 0.0
    return out


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
    a complex pair) and at u = pi, and the largest |slope| is kept.  The
    quartics of all taus are solved together (_stacked_roots).
    """
    tau = np.asarray(tau, dtype=float)
    if (tau <= 0).any():
        raise ValueError("tau must be > 0")
    a, b2 = math.cos(theta), math.sin(theta) ** 2
    p, q = _bias_slope_coefficients(theta, delta, noise, tau)
    p, q = np.ravel(p), np.ravel(q)
    roots = _stacked_roots(np.stack(
        [p * a + 2 * q * b2, 16 * a * q - 2 * p, -12 * q * b2,
         -2 * p - 16 * a * q, 2 * q * b2 - p * a], axis=-1))
    # per tau: the roots' u (a missing root is t = inf, u = pi), then pi
    us = np.concatenate([2 * np.arctan(roots), np.full((tau.size, 1), np.pi)],
                        axis=1)
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
    # f1 is convex and increasing (slope -(gamma^2/lam) expm1(-lam tau)) and
    # grows like gamma^2 tau / lam at long times: Newton from above the root
    tau_e = 10.0 * (noise.lam / noise.gamma ** 2 + 1.0 / noise.lam)
    for _ in range(_MAX_STEPS):
        new = tau_e + ((f1(noise, tau_e) - 1.0) * noise.lam / noise.gamma ** 2
                       / math.expm1(-noise.lam * tau_e))
        if not new < tau_e:
            break
        tau_e = new
    else:
        raise FitError(f"no 1/e point of f1 in {_MAX_STEPS} Newton steps")
    taus = np.linspace(tau_e / 60, 2.2 * tau_e, 130)
    delta_fit = 8 * 2 * np.pi / (2.2 * tau_e)   # ~8 fringes in the window
    y = np.asarray(closed_form_signal(SequenceKind.HAHN_RAMSEY, theta,
                                      delta_fit, noise, taus))
    return fit_decay(SignalCurve(2 * taus, y, np.zeros_like(taus), 0))
