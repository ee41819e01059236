import numpy as np
import pytest

from hahnramsey.analysis import (FitError, FitModel, ReadoutModel,
                                 fit_decay, max_bias_slope,
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
