import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hahnramsey
from hahnramsey.analysis import (FitError, FitModel, ReadoutModel,
                                 ResidualMap, fit_decay, max_bias_slope,
                                 min_detectable_field, optimal_theta,
                                 scan_noise_params, sensitivity)
from hahnramsey.analytic import (closed_form_signal, hahn_ramsey_signal,
                                 ramsey_signal)
from hahnramsey.montecarlo import SignalCurve
from hahnramsey.noise import NoiseParams
from hahnramsey.spincore import SequenceKind

FIG_NOISE = NoiseParams(2.5, 2 * np.pi * 0.1)
QUIET = NoiseParams(2.5, 0.0)
THETA = 0.2 * np.pi
DELTA = 2 * np.pi * 0.3


def curve(t, y, err=None):
    e = np.zeros_like(np.asarray(t)) if err is None else err
    return SignalCurve(np.asarray(t, float), np.asarray(y, float),
                       np.asarray(e, float), 0)


def test_fit_round_trip_exact():
    t = np.linspace(0.0, 6.0, 50)
    y = np.cos(1.7 * t) * np.exp(-((t / 2.0) ** 2))
    fit = fit_decay(curve(t, y))
    assert abs(fit.tau_c - 2.0) < 1e-6
    assert fit.frequency == pytest.approx(1.7, abs=1e-6)
    assert fit.residual_norm < 1e-12


def test_fit_plain_exponential():
    t = np.linspace(0.0, 10.0, 40)
    y = 0.8 * np.exp(-t / 3.0) + 0.1
    fit = fit_decay(curve(t, y), FitModel.PLAIN_EXPONENTIAL)
    assert abs(fit.tau_c - 3.0) < 1e-8
    assert abs(fit.offset - 0.1) < 1e-8
    assert fit.frequency == 0.0


def test_fit_monotone_curve_drops_cosine():
    t = np.linspace(0.05, 12.0, 80)
    y = np.exp(-((t / 4.0) ** 2))
    fit = fit_decay(curve(t, y))
    assert fit.frequency == 0.0
    assert abs(fit.tau_c - 4.0) < 1e-6


def test_fit_rejects_flat_and_short_data():
    t = np.linspace(0, 1, 20)
    with pytest.raises(FitError):
        fit_decay(curve(t, np.ones_like(t)))
    with pytest.raises(FitError):
        fit_decay(curve(t[:4], np.cos(t[:4])))


def test_fit_noisy_scatter_within_reported_uncertainty():
    t = np.linspace(0.0, 6.0, 60)
    clean = np.cos(2.1 * t) * np.exp(-((t / 2.0) ** 2))
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        y = clean + rng.normal(0, 0.02, t.size)
        fit = fit_decay(curve(t, y, 0.02 * np.ones_like(t)))
        if abs(fit.tau_c - 2.0) <= 3 * fit.tau_c_err:
            hits += 1
    assert hits >= 9


def test_fit_ordering_detuned_echo_beats_ramsey():
    # compare on the total-duration axis: ramsey lasts tau, echoes 2 tau
    t = np.linspace(0.05, 9.0, 90)
    ram = fit_decay(curve(t, ramsey_signal(DELTA, FIG_NOISE, t)))
    t2 = np.linspace(0.05, 14.0, 90)
    hr = fit_decay(curve(t2, hahn_ramsey_signal(THETA, DELTA, FIG_NOISE, t2 / 2)))
    assert hr.tau_c - hr.tau_c_err > ram.tau_c + ram.tau_c_err


# --------------------------------------------------------------------------
# residual scans


def make_data(lam, gam, taus, sigma=0.0, seed=0):
    y = np.asarray(ramsey_signal(DELTA, NoiseParams(lam, gam), taus))
    if sigma > 0:
        y = y + np.random.default_rng(seed).normal(0, sigma, taus.size)
    return curve(taus, y)


def test_scan_recovers_truth_exactly_without_noise():
    taus = np.linspace(0.1, 6.0, 40)
    lam_grid = np.linspace(1.5, 3.5, 11)
    gam_grid = np.linspace(2 * np.pi * 0.06, 2 * np.pi * 0.14, 11)
    data = make_data(lam_grid[5], gam_grid[5], taus)
    m = scan_noise_params(data, SequenceKind.RAMSEY, np.pi / 2, DELTA,
                          lam_grid, gam_grid)
    assert m.argmin == (5, 5)
    assert m.residuals[5, 5] == pytest.approx(0.0, abs=1e-20)
    assert m.residuals.min() == m.residuals[m.argmin]


def test_scan_flat_along_lambda_for_quiet_data():
    taus = np.linspace(0.1, 6.0, 40)
    lam_grid = np.linspace(1.0, 3.0, 5)
    gam_grid = np.array([0.0, 0.3, 0.6])
    data = make_data(2.0, 0.0, taus)
    m = scan_noise_params(data, SequenceKind.RAMSEY, np.pi / 2, DELTA,
                          lam_grid, gam_grid)
    assert np.ptp(m.residuals[:, 0]) == pytest.approx(0.0, abs=1e-25)
    assert m.argmin == (0, 0)      # tie broken toward the smallest index


def test_scan_recovery_with_noise():
    # lambda and gamma are nearly ridge-degenerate here (the signal mostly
    # feels gamma^2/lambda at these lambda*tau), so "small noise" matters
    taus = np.linspace(0.1, 6.0, 40)
    lam_grid = np.linspace(1.5, 3.5, 11)
    gam_grid = np.linspace(2 * np.pi * 0.06, 2 * np.pi * 0.14, 11)
    hits = 0
    for seed in range(10):
        data = make_data(lam_grid[5], gam_grid[5], taus, sigma=0.005, seed=seed)
        m = scan_noise_params(data, SequenceKind.RAMSEY, np.pi / 2, DELTA,
                              lam_grid, gam_grid)
        if abs(m.argmin[0] - 5) <= 1 and abs(m.argmin[1] - 5) <= 1:
            hits += 1
    assert hits >= 9


def test_scan_rows_match_cell_by_cell_models():
    # reference: one closed-form curve per (lambda, gamma) cell
    taus = np.linspace(0.1, 4.0, 30)
    data = make_data(2.5, 0.5, taus, sigma=0.01, seed=4)
    lam_grid = np.linspace(1.0, 4.0, 7)
    gam_grid = np.linspace(0.0, 1.0, 6)
    y = data.means
    tss = ((y - y.mean()) ** 2).sum()
    for kind, theta, delta in [(SequenceKind.RAMSEY, np.pi / 2, DELTA),
                               (SequenceKind.HAHN_ECHO, np.pi / 2, 0.0),
                               (SequenceKind.HAHN_RAMSEY, THETA, DELTA)]:
        m = scan_noise_params(data, kind, theta, delta, lam_grid, gam_grid)
        ref = [[((y - closed_form_signal(kind, theta, delta,
                                         NoiseParams(lam, gam), taus)) ** 2
                 ).sum() / tss for gam in gam_grid] for lam in lam_grid]
        np.testing.assert_allclose(m.residuals, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("lam_grid, gam_grid", [
    ([-1.0, 2.5], [0.3]),
    ([0.0, 2.5], [0.3]),
    ([2.5], [-0.1, 0.3]),
    ([np.nan, 2.5], [0.3]),
    ([2.5], [0.3, np.inf]),
    ([], [0.3]),
])
def test_scan_rejects_bad_grids(lam_grid, gam_grid):
    data = make_data(2.5, 0.3, np.linspace(0.1, 2.0, 10))
    with pytest.raises(ValueError):
        scan_noise_params(data, SequenceKind.RAMSEY, np.pi / 2, DELTA,
                          np.array(lam_grid), np.array(gam_grid))


def test_scan_rejects_non_finite_data():
    data = make_data(2.5, 0.3, np.linspace(0.1, 2.0, 10))
    data.means[3] = np.nan
    with pytest.raises(ValueError):
        scan_noise_params(data, SequenceKind.RAMSEY, np.pi / 2, DELTA,
                          np.array([2.5]), np.array([0.3]))


def test_scan_rejects_tilted_ramsey():
    # the ramsey closed form exists at theta = pi/2 only
    data = make_data(2.5, 0.3, np.linspace(0.1, 2.0, 10))
    with pytest.raises(ValueError):
        scan_noise_params(data, SequenceKind.RAMSEY, 0.5, DELTA,
                          np.array([2.5]), np.array([0.3]))


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (7, 2)])
def test_residual_map_csv_is_the_per_cell_format(shape, tmp_path):
    rng = np.random.default_rng(3)
    lam = np.sort(rng.uniform(0.1, 4.0, shape[0]))
    gam = np.sort(rng.uniform(0.0, 1.2, shape[1]))
    res = rng.random(shape) * 10.0 ** rng.integers(-12, 3, shape)
    ResidualMap(lam, gam, res, (0, 0)).to_csv(tmp_path / "m.csv", "hdr")
    cells = "".join(f"{lam[i]:.17g},{gam[j]:.17g},{res[i, j]:.17g}\n"
                    for i in range(shape[0]) for j in range(shape[1]))
    assert (tmp_path / "m.csv").read_text() == (
        "# hdr\nlambda,gamma,residual\n" + cells)


# --------------------------------------------------------------------------
# sensitivity


def test_readout_model():
    r = ReadoutModel(1.3, 0.7)
    assert r.alpha == pytest.approx(0.3)
    assert r.beta == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ReadoutModel(0.7, 0.7)
    with pytest.raises(ValueError):
        ReadoutModel(1.0, -0.1)


def test_min_detectable_field_values():
    r = ReadoutModel(2.0, 0.0)    # alpha = 1, beta = 1
    assert min_detectable_field(r, 1.0, 1.0) == pytest.approx(1 / (3 * np.pi))
    quad = ReadoutModel(4.0, 0.0)  # beta doubled, alpha unchanged
    assert min_detectable_field(quad, 1.0, 1.0) == pytest.approx(
        1 / (3 * np.pi) / np.sqrt(2))
    # monotone decreasing in each of tau, alpha, beta
    assert min_detectable_field(r, 2.0, 1.0) < min_detectable_field(r, 1.0, 1.0)
    low_contrast = ReadoutModel(1.5, 0.5)   # same beta, smaller alpha
    assert min_detectable_field(r, 1.0, 1.0) < \
        min_detectable_field(low_contrast, 1.0, 1.0)
    assert min_detectable_field(quad, 1.0, 1.0) < \
        min_detectable_field(ReadoutModel(2.0, 0.0), 1.0, 1.0)
    with pytest.raises(ValueError):
        min_detectable_field(r, 0.0, 1.0)


def test_formula_against_numeric_slope_noiseless():
    # kinematic check of the 3 pi constant: no decay, optimal tilt,
    # fringe peak; valid within a quarter of the numeric value
    tau = 1.0
    slope = max_bias_slope(THETA, 2 * np.pi, QUIET, tau)
    r = ReadoutModel(1.3, 0.7)
    gamma_e = 2.8025
    db_numeric = 1.0 / (r.alpha * np.sqrt(r.beta) * 2 * np.pi * gamma_e * slope)
    db_formula = min_detectable_field(r, tau, gamma_e)
    assert abs(db_formula - db_numeric) / db_numeric < 0.25


def test_optimal_theta_interior_maximum():
    grid = np.linspace(0.3, 2.0, 8)
    th = optimal_theta(QUIET, 1.0, grid)
    assert 0.15 * np.pi < th < 0.25 * np.pi
    # the factorized tilt dependence peaks at arctan(sqrt(2/3))
    assert th == pytest.approx(np.arctan(np.sqrt(2 / 3)), abs=1e-4)
    th2 = optimal_theta(FIG_NOISE, DELTA, grid)
    assert th2 == pytest.approx(np.arctan(np.sqrt(2 / 3)), abs=1e-4)


def test_optimal_theta_is_a_maximizer():
    grid = np.linspace(0.3, 2.0, 8)
    from hahnramsey.analytic import hr_signal_derivative, BiasParams
    th = optimal_theta(FIG_NOISE, DELTA, grid)
    best = np.max(np.abs(hr_signal_derivative(th, DELTA, BiasParams(0.0),
                                              FIG_NOISE, grid)))
    for other in np.linspace(0.05, np.pi / 2 - 0.05, 25):
        val = np.max(np.abs(hr_signal_derivative(other, DELTA, BiasParams(0.0),
                                                 FIG_NOISE, grid)))
        assert best >= val - 1e-12


def test_sensitivity_report():
    r = ReadoutModel(1.3, 0.7)
    res = sensitivity(FIG_NOISE, r, THETA)
    assert res.delta_b_min > 0 and res.optimal_tau > 0 and res.eta > 0
    assert res.t2 > 0
    assert res.optimal_theta == pytest.approx(THETA)
    with pytest.raises(ValueError):
        sensitivity(QUIET, r, THETA)
    # photon-count scale enters only through alpha (unchanged) and sqrt(beta)
    res2 = sensitivity(FIG_NOISE, ReadoutModel(2.6, 1.4), THETA)
    assert res2.optimal_tau == res.optimal_tau
    assert res2.delta_b_min == pytest.approx(res.delta_b_min / np.sqrt(2))
    assert res2.eta == pytest.approx(res.eta / np.sqrt(2))


def test_sensitivity_gamma_scaling():
    # 4x faster dephasing halves the sqrt-coherence-time denominator,
    # doubling eta (motional-narrowing scaling)
    r = ReadoutModel(1.3, 0.7)
    res1 = sensitivity(FIG_NOISE, r, THETA)
    res2 = sensitivity(NoiseParams(2.5, 2 * FIG_NOISE.gamma), r, THETA)
    assert res2.eta / res1.eta == pytest.approx(2.0, rel=0.2)


# --------------------------------------------------------------------------
# the array passes against per-point loops: one tilt, or one tau, per
# closed-form call, refined by scipy's bounded scalar search


def _optimal_theta_per_tilt(noise, delta, tau_grid, n_grid=181):
    from scipy.optimize import minimize_scalar
    from hahnramsey.analytic import hr_signal_derivative, BiasParams
    tau_grid = np.asarray(tau_grid, dtype=float)
    thetas = np.linspace(1e-4, np.pi / 2 - 1e-4, n_grid)

    def objective(th):
        return float(np.max(np.abs(hr_signal_derivative(
            th, delta, BiasParams(0.0), noise, tau_grid))))

    vals = np.array([objective(th) for th in thetas])
    k = int(vals.argmax())
    lo, hi = thetas[max(0, k - 1)], thetas[min(n_grid - 1, k + 1)]
    ref = minimize_scalar(lambda th: -objective(th), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-10})
    return float(ref.x) if -ref.fun >= vals[k] else float(thetas[k])


def _max_bias_slope_per_tau(theta, delta, noise, tau, n_grid=801):
    """The bounded search stops about 1e-8 short of a bracket end in u, so
    where the maximum of the bracket is its end, the grid value is kept."""
    from scipy.optimize import minimize_scalar
    from hahnramsey.analytic import hr_signal_derivative, BiasParams
    us = np.linspace(-np.pi, np.pi, n_grid)
    vals = np.abs(hr_signal_derivative(theta, delta, BiasParams(us / tau),
                                       noise, tau))
    k = int(vals.argmax())
    h = us[1] - us[0]
    lo, hi = us[k] - h, us[k] + h     # wraps at u = +-pi: the slope is periodic
    ref = minimize_scalar(
        lambda u: -abs(hr_signal_derivative(theta, delta, BiasParams(u / tau),
                                            noise, tau)),
        bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    return max(float(-ref.fun), float(vals[k]))


@pytest.mark.parametrize("noise, delta, tau_grid", [
    (FIG_NOISE, 0.0, np.linspace(0.2, 2.0, 10) / 2.5),
    (FIG_NOISE, DELTA, np.linspace(0.3, 2.0, 8)),
    (QUIET, 1.0, np.linspace(0.3, 2.0, 8)),
    (NoiseParams(0.3, 1.0), 0.0, np.linspace(0.2, 2.0, 10) / 0.3),
    (NoiseParams(10.0, 3.0), 1.3, np.linspace(0.2, 2.0, 10) / 10.0)])
def test_optimal_theta_equals_the_per_tilt_loop(noise, delta, tau_grid):
    assert optimal_theta(noise, delta, tau_grid) == \
        _optimal_theta_per_tilt(noise, delta, tau_grid)


@pytest.mark.parametrize("theta, delta, noise", [
    (THETA, 0.0, FIG_NOISE), (0.7, 1.3, FIG_NOISE), (0.3, 0.4, NoiseParams(1.0, 0.5)),
    (1.2, 0.0, NoiseParams(0.3, 1.0)), (0.95, 3.0, NoiseParams(10.0, 3.0)),
    (THETA, 2 * np.pi, QUIET)])
def test_max_bias_slope_matches_the_per_tau_search(theta, delta, noise):
    taus = np.linspace(0.1, 10.0, 60) / noise.lam
    slopes = max_bias_slope(theta, delta, noise, taus, n_grid=801)
    assert slopes.shape == taus.shape
    want = [_max_bias_slope_per_tau(theta, delta, noise, t) for t in taus]
    np.testing.assert_allclose(slopes, want, rtol=1e-14, atol=0)
    singles = [max_bias_slope(theta, delta, noise, float(t), n_grid=801)
               for t in taus]
    assert all(isinstance(s, float) for s in singles)
    np.testing.assert_allclose(singles, want, rtol=1e-14, atol=0)


def test_max_bias_slope_wraps_its_bracket_at_the_grid_ends():
    # the slope is 2 pi-periodic in u = epsilon tau; here the 801-point grid
    # maximum is u = pi and the peak lies just past it, at u = -pi + 6.5e-4
    from hahnramsey.analytic import BiasParams, hr_signal_derivative
    theta, delta = 0.7, 1.3
    tau = np.linspace(0.1, 10.0, 60)[24] / FIG_NOISE.lam
    grid = np.linspace(-np.pi, np.pi, 801)
    assert np.abs(hr_signal_derivative(theta, delta, BiasParams(grid / tau),
                                       FIG_NOISE, tau)).argmax() == 800
    # the spacing of a 2e6-point grid, over the +-0.05 around u = pi
    dense_us = np.pi + np.arange(-15_915, 15_916) * (2 * np.pi / 2e6)
    dense = np.abs(hr_signal_derivative(theta, delta, BiasParams(dense_us / tau),
                                        FIG_NOISE, tau)).max()
    for n_grid in (801, 4001):
        got = max_bias_slope(theta, delta, FIG_NOISE, tau, n_grid=n_grid)
        assert got == pytest.approx(dense, rel=1e-12, abs=0)


# the benchmark tracer's contract, in a fresh process: getattr(analysis,
# "curve_fit") gives scipy's function, and a wrapper set in its place is the
# one fit_decay calls, also after brentq and minimize_scalar load
_COUNTED_FITS = """
import sys
import numpy as np
from hahnramsey import analysis
from hahnramsey.montecarlo import SignalCurve
from hahnramsey.noise import NoiseParams

assert "curve_fit" not in vars(analysis) and "scipy" not in sys.modules
real = getattr(analysis, "curve_fit")
import scipy.optimize
assert real is scipy.optimize.curve_fit
calls = []

def counting(*args, **kwargs):
    calls.append(1)
    return real(*args, **kwargs)

analysis.curve_fit = counting
t = np.linspace(0.0, 6.0, 50)
y = np.cos(1.7 * t) * np.exp(-((t / 2.0) ** 2))
fit = analysis.fit_decay(SignalCurve(t, y, np.zeros_like(t), 0))
assert abs(fit.tau_c - 2.0) < 1e-6
print(len(calls))
analysis.sensitivity(NoiseParams(2.5, 0.6), analysis.ReadoutModel(1.3, 0.7))
assert analysis.curve_fit is counting
print(len(calls))
"""


def test_fit_decay_calls_a_wrapper_set_on_analysis_curve_fit():
    src = str(Path(hahnramsey.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _COUNTED_FITS],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # four phase restarts per oscillating fit: fit_decay, then the fringe
    # fit inside sensitivity
    assert proc.stdout.split() == ["4", "8"]
