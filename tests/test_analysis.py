import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hahnramsey
from hahnramsey import analysis
from hahnramsey.analysis import (OPTIMAL_THETA, FitError, FitModel,
                                 ReadoutModel, fit_decay,
                                 max_bias_slope, min_detectable_field,
                                 scan_noise_params, sensitivity)
from hahnramsey.analytic import (_bias_slope_coefficients,
                                 closed_form_signal, hr_signal_derivative)
from hahnramsey.noise import NoiseParams, f1, filter_exponents
from hahnramsey.spincore import SequenceKind
from scan_oracle import scan_residuals
from tilt_oracle import optimal_theta_per_tilt

FIG_NOISE = NoiseParams(2.5, 2 * np.pi * 0.1)
QUIET = NoiseParams(2.5, 0.0)
THETA = 0.2 * np.pi
DELTA = 2 * np.pi * 0.3


def curve(t, y, err=None):
    """(taus, signal, stderrs) as fit_decay takes them."""
    return (np.asarray(t, float), np.asarray(y, float),
            None if err is None else np.asarray(err, float))


def _median_cases():
    rng = np.random.default_rng(20191218)
    for n in [*range(1, 65), 120, 129]:
        yield rng.normal(size=n)
        yield rng.integers(0, 3, size=n).astype(float)            # ties
        yield rng.choice([-0.0, 0.0], size=n)
        yield rng.choice([-0.0, 0.0, -1.0, 1.0], size=n)
        yield rng.choice([-np.inf, np.inf, -0.0, 0.0, 2.5], size=n)
        for at in {0, n // 2, n - 1}:                             # NaN anywhere
            x = rng.normal(size=n)
            x[at] = np.nan
            yield x
    yield np.array([-np.inf, np.inf])                              # two infinite
    yield np.array([1.0, -np.inf, np.inf, 2.0])                   # middles
    yield np.array([-np.inf, -np.inf, np.inf, np.inf])
    yield np.array([np.inf, np.inf, 0.0])
    yield np.array([-0.0, -0.0])
    yield np.array([-0.0])


def test_median_is_np_median_bit_for_bit():
    with np.errstate(invalid="ignore"):
        for x in _median_cases():
            got, want = analysis._median(x), np.median(x)
            assert type(got) is type(want), x
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), x


def test_fit_round_trip_exact():
    t = np.linspace(0.0, 6.0, 50)
    y = np.cos(1.7 * t) * np.exp(-((t / 2.0) ** 2))
    fit = fit_decay(t, y)
    assert abs(fit.tau_c - 2.0) < 1e-6
    assert fit.frequency == pytest.approx(1.7, abs=1e-6)
    assert fit.residual_norm < 1e-12


def test_fit_plain_exponential():
    t = np.linspace(0.0, 10.0, 40)
    y = 0.8 * np.exp(-t / 3.0) + 0.1
    fit = fit_decay(t, y, model=FitModel.PLAIN_EXPONENTIAL)
    assert abs(fit.tau_c - 3.0) < 1e-8
    assert abs(fit.offset - 0.1) < 1e-8
    assert fit.frequency == 0.0


def test_fit_monotone_curve_drops_cosine():
    t = np.linspace(0.05, 12.0, 80)
    y = np.exp(-((t / 4.0) ** 2))
    fit = fit_decay(t, y)
    assert fit.frequency == 0.0
    assert abs(fit.tau_c - 4.0) < 1e-6


def test_fit_takes_points_in_any_order_and_repeated_taus():
    # the points are fitted in tau order; the guesses read the distinct
    # taus, so that a tau measured twice leaves the spacing nonzero
    t, y, err = _scatter_curve(4)
    want = fit_decay(t, y, err)
    for rows in (np.arange(t.size)[::-1], np.random.default_rng(2).permutation(t.size)):
        assert fit_decay(t[rows], y[rows], err[rows]) == want
    twice = fit_decay(np.repeat(t, 2), np.repeat(y, 2), np.repeat(err, 2))
    assert twice.tau_c == pytest.approx(want.tau_c, rel=1e-9)
    assert twice.frequency == pytest.approx(want.frequency, rel=1e-9)


def test_fit_rejects_flat_and_short_data():
    t = np.linspace(0, 1, 20)
    with pytest.raises(FitError):
        fit_decay(t, np.ones_like(t))
    with pytest.raises(FitError):
        fit_decay(t[:4], np.cos(t[:4]))


def _scatter_curve(seed):
    """A tau_c = 2 fringe with 0.02 Gaussian scatter and its stderr column."""
    t = np.linspace(0.0, 6.0, 60)
    clean = np.cos(2.1 * t) * np.exp(-((t / 2.0) ** 2))
    y = clean + np.random.default_rng(seed).normal(0, 0.02, t.size)
    return curve(t, y, 0.02 * np.ones_like(t))


def test_fit_noisy_scatter_within_reported_uncertainty():
    hits = 0
    for seed in range(10):
        fit = fit_decay(*_scatter_curve(seed))
        if abs(fit.tau_c - 2.0) <= 3 * fit.tau_c_err:
            hits += 1
    assert hits >= 9


def test_fit_ordering_detuned_echo_beats_ramsey():
    # compare on the total-duration axis: ramsey lasts tau, echoes 2 tau
    t = np.linspace(0.05, 9.0, 90)
    ram = fit_decay(t, closed_form_signal(SequenceKind.RAMSEY, np.pi / 2,
                                          DELTA, FIG_NOISE, t))
    t2 = np.linspace(0.05, 14.0, 90)
    hr = fit_decay(t2, closed_form_signal(SequenceKind.HAHN_RAMSEY, THETA,
                                          DELTA, FIG_NOISE, t2 / 2))
    assert hr.tau_c - hr.tau_c_err > ram.tau_c + ram.tau_c_err


_MODELS = [(analysis._gaussian_envelope, analysis._gaussian_envelope_jac),
           (analysis._gaussian_bare, analysis._gaussian_bare_jac),
           (analysis._plain_exponential, analysis._plain_exponential_jac)]


@pytest.mark.parametrize("model, jac", _MODELS)
@pytest.mark.parametrize("seed", range(5))
def test_fit_jacobian_matches_central_differences(model, jac, seed):
    rng = np.random.default_rng(seed)
    amp, w, phi, tc, c = (rng.uniform(0.3, 2.0), rng.uniform(0.5, 5.0),
                          rng.uniform(-3.0, 3.0), rng.uniform(0.5, 5.0),
                          rng.uniform(-0.5, 0.5))
    params = [amp, w, phi, tc, c] if model is analysis._gaussian_envelope \
        else [amp, tc, c]
    # t/tc from 0 to 1e4, the bound the fit's tc limits allow
    t = tc * np.concatenate([[0.0], np.logspace(-3, 4, 400)])
    got = jac(t, *params)
    assert got.shape == (t.size, len(params)) and np.isfinite(got).all()
    fd = np.empty_like(got)
    for j, pj in enumerate(params):
        h = 1e-6 * abs(pj)
        up, down = list(params), list(params)
        up[j], down[j] = pj + h, pj - h
        fd[:, j] = (model(t, *up) - model(t, *down)) / (2 * h)
    # relative per entry, with a floor at the rounding level of the column
    tol = 1e-6 * np.abs(fd) + 1e-9 * np.abs(fd).max(axis=0)
    assert (np.abs(got - fd) <= tol).all()


def _bench_fringe(seed):
    """A benchmark-style noisy fringe: 121 points, noise 0.01, stderr column."""
    t = np.linspace(0.0, 12.0, 121)
    rng = np.random.default_rng(seed)
    amp, w, phi = rng.uniform(0.6, 0.9), rng.uniform(1.5, 2.5), rng.uniform(-0.5, 0.5)
    tc, c = rng.uniform(3.0, 5.0), rng.uniform(-0.1, 0.1)
    y = amp * np.cos(w * t + phi) * np.exp(-((t / tc) ** 2)) + c
    y = y + rng.normal(0.0, 0.01, t.size)
    return curve(t, y, np.full(t.size, 0.01))


def _fit_move_cases():
    """(name, curve, model): benchmark-style noisy fringes with a stderr
    column, the decay curves of acceptance criterion 5, and noisy
    bare-Gaussian and exponential decays (the fits without a fringe)."""
    for seed in range(1, 6):
        yield f"fringe-{seed}", _bench_fringe(seed), FitModel.GAUSSIAN_ENVELOPE
    t_r = np.linspace(0.05, 9.0, 90)
    t_e = np.linspace(0.05, 14.0, 90)
    yield "ramsey", curve(t_r, closed_form_signal(
        SequenceKind.RAMSEY, np.pi / 2, DELTA, FIG_NOISE, t_r)), FitModel.GAUSSIAN_ENVELOPE
    yield "hahn_ramsey", curve(t_e, closed_form_signal(
        SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, t_e / 2)), \
        FitModel.GAUSSIAN_ENVELOPE
    yield "hahn_echo", curve(t_e, closed_form_signal(
        SequenceKind.HAHN_ECHO, np.pi / 2, 0.0, FIG_NOISE, t_e / 2)), \
        FitModel.GAUSSIAN_ENVELOPE
    noise = np.random.default_rng(7).normal(0.0, 0.01, t_r.size)
    yield "bare", curve(t_r, np.exp(-((t_r / 4.0) ** 2)) + noise), \
        FitModel.GAUSSIAN_ENVELOPE
    yield "exponential", curve(t_r, 0.8 * np.exp(-t_r / 3.0) + 0.1 + noise), \
        FitModel.PLAIN_EXPONENTIAL


_FITS = [
    pytest.param(lambda c=c, m=m: fit_decay(*c, m), id=name)
    for name, c, m in _fit_move_cases()] + [
    # the fringe fit inside sensitivity, at the tilt it picks
    pytest.param(lambda: analysis._fringe_envelope_fit(OPTIMAL_THETA, FIG_NOISE),
                 id="sensitivity-fringe")]


def _scipy_curve_fit(fn, x, y, p0, bounds, jac, sigma=None, **stop):
    """scipy's bounded curve_fit on the problem fit_decay poses; the oracle."""
    import scipy.optimize
    return scipy.optimize.curve_fit(fn, x, y, p0=p0, bounds=bounds, jac=jac, sigma=sigma,
                                    absolute_sigma=sigma is not None, maxfev=20000,
                                    **stop)


@pytest.mark.parametrize("fit", _FITS)
def test_exact_jacobian_fit_matches_the_finite_difference_fit(monkeypatch, fit):
    def without_jac(fn, x, y, p0, bounds, jac, sigma=None):
        return _scipy_curve_fit(fn, x, y, p0, bounds, "2-point", sigma)

    exact = fit()
    # oracle: the same fit with scipy's default finite-difference Jacobian
    monkeypatch.setattr(analysis, "curve_fit", without_jac)
    oracle = fit()
    assert exact.tau_c_err > 0
    assert abs(exact.tau_c - oracle.tau_c) <= 1e-3 * exact.tau_c_err


@pytest.mark.parametrize("fit", _FITS)
def test_fit_covariance_matches_scipy_curve_fit(monkeypatch, fit):
    # the fringe-* curves carry a stderr column, so their covariance is
    # absolute; the others are scaled by SSR / (m - n)
    real, seen = analysis.curve_fit, []
    monkeypatch.setattr(analysis, "curve_fit",
                        lambda *args: seen.append((args, real(*args))) or seen[-1][1])
    ours = fit()
    [(args, (popt, pcov))] = seen
    # the formula: scipy's covariance at popt itself (gtol inf ends its run
    # before a first step), entry by entry on the scale of the diagonal
    ref = _scipy_curve_fit(*args[:3], popt, *args[4:], gtol=np.inf)[1]
    assert (np.abs(pcov - ref) <= 1e-12 * np.sqrt(np.outer(*[np.diag(ref)] * 2))).all()
    # and from the same start: the two solvers stop at different points of a
    # slow approach (hahn_ramsey: scipy 8.6e-6 short of the converged
    # tau_c_err, this fit 9e-7), so the bound is 1e-5
    monkeypatch.setattr(analysis, "curve_fit", _scipy_curve_fit)
    oracle = fit()
    assert ours.tau_c_err == pytest.approx(oracle.tau_c_err, rel=1e-5, abs=0)


def test_fringe_window_is_the_brentq_root_of_f1_within_the_newton_cap(monkeypatch):
    from scipy.optimize import brentq
    seen = []
    monkeypatch.setattr(analysis, "fit_decay", lambda *a: seen.append(a))
    grid = np.logspace(-12, 12, 25)   # the lam and gamma that sensitivity takes
    for noise in [FIG_NOISE, *(NoiseParams(lam, g) for lam in grid for g in grid)]:
        analysis._fringe_envelope_fit(OPTIMAL_THETA, noise)   # FitError past the cap
        # the window ends at 2.2 tau_e, on the total-duration axis 2 tau
        got = seen[-1][0][-1] / 4.4
        hi = 10.0 * (noise.lam / noise.gamma ** 2 + 1.0 / noise.lam)
        want = brentq(lambda t: f1(noise, t) - 1.0, 0.0, hi, xtol=1e-300,
                      rtol=4 * np.finfo(float).eps, maxiter=2000)
        assert got == pytest.approx(want, rel=1e-12, abs=0), noise


def _four_phase_fit(c):
    """Oracle of the oscillating fit: the bounded Gaussian-envelope fit run
    from the blind start phases 0, pi/2, pi and -pi/2 (amplitude half the
    data range, offset the data mean), keeping the fit of least SSR."""
    import scipy.optimize
    t, y, sigma = c
    span, tmax = float(np.ptp(y)), float(t.max())
    w0, tc0 = analysis._freq_guess(t, y), analysis._tau_c_guess(t, y)
    dt = float(np.median(np.diff(t)))
    lo = [0.0, 0.0, -2 * np.pi, tmax * 1e-4, y.min() - span - 1.0]
    hi = [10 * span + 1e-9, np.pi / dt, 2 * np.pi, tmax * 1e3, y.max() + span + 1.0]
    fits = []
    for phi0 in (0.0, np.pi / 2, np.pi, -np.pi / 2):
        popt, pcov = scipy.optimize.curve_fit(
            analysis._gaussian_envelope, t, y,
            p0=[span / 2, w0, phi0, tc0, float(y.mean())], bounds=(lo, hi),
            jac=analysis._gaussian_envelope_jac, sigma=sigma,
            absolute_sigma=sigma is not None, maxfev=20000)
        resid = analysis._gaussian_envelope(t, *popt) - y
        fits.append(analysis._make_fit(popt[3], pcov[3][3], popt[0], popt[4],
                                       popt[1], popt[2], resid, y))
    return min(fits, key=lambda f: f.residual_norm)


def _sensitivity_fringe():
    """The curve the fringe fit inside sensitivity fits, at the tilt it picks."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "fit_decay", lambda *a: seen.append(a) or fit_decay(*a))
        analysis._fringe_envelope_fit(OPTIMAL_THETA, FIG_NOISE)
    return curve(*seen[0])


def _oscillating(c):
    return analysis._freq_guess(c[0], c[1]) > 0


@pytest.mark.parametrize("make", [
    pytest.param(lambda c=c: c, id=name) for name, c, m in _fit_move_cases()
    if m is FitModel.GAUSSIAN_ENVELOPE and _oscillating(c)] + [
    pytest.param(lambda s=s: _scatter_curve(s), id=f"scatter-{s}") for s in range(10)] + [
    pytest.param(lambda s=s: _bench_fringe(s), id=f"bench-{s}") for s in range(1, 21)] + [
    pytest.param(_sensitivity_fringe, id="sensitivity-fringe")])
def test_single_start_fit_matches_the_four_phase_oracle(monkeypatch, make):
    c = make()
    assert _oscillating(c)
    real, calls = analysis.curve_fit, []
    monkeypatch.setattr(analysis, "curve_fit",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    fit = fit_decay(*c)
    oracle = _four_phase_fit(c)
    assert len(calls) == 1
    assert fit.residual_norm <= (1 + 1e-8) * oracle.residual_norm
    assert abs(fit.tau_c - oracle.tau_c) <= 1e-3 * fit.tau_c_err


@pytest.mark.parametrize("c, model, scale", [
    pytest.param(c, m, scale, id=f"{scale}" if name == "fringe" else f"{name}-{scale}")
    for name, c, m in [("fringe", _bench_fringe(3), FitModel.GAUSSIAN_ENVELOPE),
                       *(case for case in _fit_move_cases()
                         if case[0] in ("bare", "exponential"))]
    for scale in [1e-300, 1e-6, 1e8, 1e11, 1e300]])
def test_fringe_fit_does_not_depend_on_the_time_unit(c, model, scale):
    # in the curve's own unit, taus from about 1e7 on gave a tau_c_err 1e-18
    # too small, and from about 3e10 on a single start stopped short; the
    # bare-envelope and exponential fits broke at tiny and huge taus
    t, y, err = c
    base = fit_decay(t, y, err, model)
    fit = fit_decay(t * scale, y, err, model)
    assert fit.tau_c / scale == pytest.approx(base.tau_c, rel=1e-12, abs=0)
    assert fit.tau_c_err / scale == pytest.approx(base.tau_c_err, rel=1e-12, abs=0)
    assert fit.frequency * scale == pytest.approx(base.frequency, rel=1e-12, abs=0)
    for key in ("amplitude", "offset", "phase", "residual_norm"):
        assert getattr(fit, key) == pytest.approx(getattr(base, key), rel=1e-12,
                                                  abs=1e-15)


@pytest.mark.parametrize("c, model", [
    pytest.param(_bench_fringe(1), FitModel.GAUSSIAN_ENVELOPE, id="fringe"),
    pytest.param(curve(np.linspace(0.05, 12.0, 80),
                       np.exp(-((np.linspace(0.05, 12.0, 80) / 4.0) ** 2))),
                 FitModel.GAUSSIAN_ENVELOPE, id="bare"),
    pytest.param(curve(np.linspace(0.0, 10.0, 40),
                       0.8 * np.exp(-np.linspace(0.0, 10.0, 40) / 3.0)),
                 FitModel.PLAIN_EXPONENTIAL, id="exponential")])
def test_fit_that_does_not_converge_raises_fit_error_naming_the_model(
        monkeypatch, c, model):
    def failing(*args, **kwargs):
        raise RuntimeError("Optimal parameters not found")

    monkeypatch.setattr(analysis, "curve_fit", failing)
    with pytest.raises(FitError, match=f"^{model.value} fit failed to converge: "
                                       "Optimal parameters not found$"):
        fit_decay(*c, model)


# --------------------------------------------------------------------------
# residual scans


def make_data(lam, gam, taus, sigma=0.0, seed=0):
    y = np.asarray(closed_form_signal(SequenceKind.RAMSEY, np.pi / 2, DELTA,
                                      NoiseParams(lam, gam), taus))
    if sigma > 0:
        y = y + np.random.default_rng(seed).normal(0, sigma, taus.size)
    return taus, y


def test_scan_recovers_truth_exactly_without_noise():
    taus = np.linspace(0.1, 6.0, 40)
    lam_grid = np.linspace(1.5, 3.5, 11)
    gam_grid = np.linspace(2 * np.pi * 0.06, 2 * np.pi * 0.14, 11)
    data = make_data(lam_grid[5], gam_grid[5], taus)
    m = scan_noise_params(*data, SequenceKind.RAMSEY, np.pi / 2, DELTA,
                          lam_grid, gam_grid)
    assert m.argmin == (5, 5)
    assert m.residuals[5, 5] == pytest.approx(0.0, abs=1e-20)
    assert m.residuals.min() == m.residuals[m.argmin]


def test_scan_flat_along_lambda_for_quiet_data():
    taus = np.linspace(0.1, 6.0, 40)
    lam_grid = np.linspace(1.0, 3.0, 5)
    gam_grid = np.array([0.0, 0.3, 0.6])
    data = make_data(2.0, 0.0, taus)
    m = scan_noise_params(*data, SequenceKind.RAMSEY, np.pi / 2, DELTA,
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
        m = scan_noise_params(*data, SequenceKind.RAMSEY, np.pi / 2, DELTA,
                              lam_grid, gam_grid)
        if abs(m.argmin[0] - 5) <= 1 and abs(m.argmin[1] - 5) <= 1:
            hits += 1
    assert hits >= 9


def test_scan_rows_match_cell_by_cell_models():
    # reference: one closed-form curve per (lambda, gamma) cell, on a lambda
    # grid of three chunks of rows, the last one ragged
    taus = np.linspace(0.1, 4.0, 30)
    data = make_data(2.5, 0.5, taus, sigma=0.01, seed=4)
    gam_grid = np.linspace(0.0, 1.0, 101)
    rows = analysis._SCAN_BUFFER_BYTES // (8 * gam_grid.size * taus.size)
    assert rows >= 2
    lam_grid = np.linspace(1.0, 4.0, 2 * rows + rows // 2 + 1)
    y = data[1]
    tss = ((y - y.mean()) ** 2).sum()
    for kind, theta, delta in [(SequenceKind.RAMSEY, np.pi / 2, DELTA),
                               (SequenceKind.HAHN_ECHO, np.pi / 2, 0.0),
                               (SequenceKind.HAHN_RAMSEY, THETA, DELTA)]:
        m = scan_noise_params(*data, kind, theta, delta, lam_grid, gam_grid)
        ref = [[((y - closed_form_signal(kind, theta, delta,
                                         NoiseParams(lam, gam), taus)) ** 2
                 ).sum() / tss for gam in gam_grid] for lam in lam_grid]
        np.testing.assert_allclose(m.residuals, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n_taus", [300, 9000])
def test_scan_cells_do_not_depend_on_the_chunk(n_taus, monkeypatch):
    # whole grid rows in one chunk, gamma rows split in parts of 3 cells
    # (the last ragged), and one cell per chunk give the same bits; past
    # 8192 taus numpy's einsum sums a tau row in buffer-sized parts when a
    # chunk holds more than one cell, so there every chunk holds one
    taus = np.linspace(0.1, 4.0, n_taus)
    data = make_data(2.5, 0.5, taus, sigma=0.01, seed=4)
    lam_grid, gam_grid = np.linspace(1.0, 4.0, 4), np.linspace(0.0, 1.0, 7)
    maps = []
    for cells in (28, 3, 1):
        monkeypatch.setattr(analysis, "_SCAN_BUFFER_BYTES", 8 * n_taus * cells)
        maps.append(scan_noise_params(*data, SequenceKind.HAHN_RAMSEY, THETA, DELTA,
                                      lam_grid, gam_grid).residuals)
    if n_taus > 8192:
        maps = maps[2:]
    for m in maps:
        assert m.tobytes() == maps[-1].tobytes()
    cell = scan_noise_params(*data, SequenceKind.HAHN_RAMSEY, THETA, DELTA,
                             lam_grid[2:3], gam_grid[5:6]).residuals
    assert cell.tobytes() == maps[-1][2:3, 5:6].tobytes()


# (taus, lambda count, gamma count, buffer cells or None for the default):
# the benchmark's 101 x 101 in chunks of 4 whole rows, the last partial;
# chunks of 3 whole rows over 11, the last partial; gamma rows of 7 split
# in 3, 3 and 1; a 1 x 1 grid; 9000 taus, one cell per chunk
_ORACLE_SHAPES = [(40, 101, 101, None), (40, 11, 7, 21), (30, 4, 7, 3),
                  (40, 1, 1, None), (9000, 3, 4, None)]


@pytest.mark.parametrize("kind, theta, delta", [
    (SequenceKind.RAMSEY, np.pi / 2, DELTA),        # one window, constant -0.0
    (SequenceKind.HAHN_ECHO, np.pi / 2, 0.0),       # one scalar amplitude
    (SequenceKind.HAHN_RAMSEY, THETA, DELTA),       # three windows
])
@pytest.mark.parametrize("n_taus, n_lam, n_gam, cells", _ORACLE_SHAPES)
def test_scan_residuals_are_the_oracle_loops_bits(kind, theta, delta, n_taus,
                                                  n_lam, n_gam, cells, monkeypatch):
    taus = np.linspace(0.1, 6.0, n_taus)
    y = closed_form_signal(kind, theta, delta, NoiseParams(2.5, 0.6), taus)
    data = taus, y + np.random.default_rng(7).normal(0, 0.01, n_taus)
    if cells is not None:
        monkeypatch.setattr(analysis, "_SCAN_BUFFER_BYTES", 8 * n_taus * cells)
    lam_grid, gam_grid = np.linspace(1.0, 4.0, n_lam), np.linspace(0.0, 1.2, n_gam)
    got = scan_noise_params(*data, kind, theta, delta, lam_grid, gam_grid).residuals
    want = scan_residuals(*data, kind, theta, delta, lam_grid, gam_grid,
                          analysis._SCAN_BUFFER_BYTES)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


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
        scan_noise_params(*data, SequenceKind.RAMSEY, np.pi / 2, DELTA,
                          np.array(lam_grid), np.array(gam_grid))


def test_scan_rejects_non_finite_data():
    data = make_data(2.5, 0.3, np.linspace(0.1, 2.0, 10))
    data[1][3] = np.nan
    with pytest.raises(ValueError):
        scan_noise_params(*data, SequenceKind.RAMSEY, np.pi / 2, DELTA,
                          np.array([2.5]), np.array([0.3]))


def test_scan_rejects_empty_data():
    with pytest.raises(ValueError, match="non-empty"):
        scan_noise_params(np.empty(0), np.empty(0), SequenceKind.RAMSEY,
                          np.pi / 2, DELTA, np.array([2.5]), np.array([0.3]))


def test_scan_rejects_tilted_ramsey():
    # the ramsey closed form exists at theta = pi/2 only
    data = make_data(2.5, 0.3, np.linspace(0.1, 2.0, 10))
    with pytest.raises(ValueError):
        scan_noise_params(*data, SequenceKind.RAMSEY, 0.5, DELTA,
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
    assert 0.15 * np.pi < OPTIMAL_THETA < 0.25 * np.pi
    # the factorized tilt dependence cos^3 sin^2 peaks at arctan(sqrt(2/3)),
    # where its derivative cos^2 sin (2 cos^2 - 3 sin^2) vanishes
    assert OPTIMAL_THETA == pytest.approx(np.arctan(np.sqrt(2 / 3)), rel=1e-15)
    c, s = np.cos(OPTIMAL_THETA), np.sin(OPTIMAL_THETA)
    assert 2 * c ** 2 == pytest.approx(3 * s ** 2, rel=1e-15)


def test_optimal_theta_is_a_maximizer():
    grid = np.linspace(0.3, 2.0, 8)
    best = np.max(np.abs(hr_signal_derivative(OPTIMAL_THETA, DELTA, 0.0,
                                              FIG_NOISE, grid)))
    for other in np.linspace(0.05, np.pi / 2 - 0.05, 25):
        val = np.max(np.abs(hr_signal_derivative(other, DELTA, 0.0,
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
# the closed-form tilt and the bias-slope array pass against per-point
# searches: one tilt, or one tau, per closed-form call, refined by scipy's
# bounded scalar search


def _max_bias_slope_per_tau(theta, delta, noise, tau, n_grid=801):
    """The bounded search stops about 1e-8 short of a bracket end in u, so
    where the maximum of the bracket is its end, the grid value is kept."""
    from scipy.optimize import minimize_scalar
    us = np.linspace(-np.pi, np.pi, n_grid)
    vals = np.abs(hr_signal_derivative(theta, delta, us / tau,
                                       noise, tau))
    k = int(vals.argmax())
    h = us[1] - us[0]
    lo, hi = us[k] - h, us[k] + h     # wraps at u = +-pi: the slope is periodic
    ref = minimize_scalar(
        lambda u: -abs(hr_signal_derivative(theta, delta, u / tau,
                                            noise, tau)),
        bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    return max(float(-ref.fun), float(vals[k]))


_TILT_CASES = [
    (FIG_NOISE, 0.0, np.linspace(0.2, 2.0, 10) / 2.5),
    (FIG_NOISE, DELTA, np.linspace(0.3, 2.0, 8)),
    (QUIET, 1.0, np.linspace(0.3, 2.0, 8)),
    (NoiseParams(0.3, 1.0), 0.0, np.linspace(0.2, 2.0, 10) / 0.3),
    (NoiseParams(10.0, 3.0), 1.3, np.linspace(0.2, 2.0, 10) / 10.0)]


@pytest.mark.parametrize("noise, delta, tau_grid", _TILT_CASES)
def test_optimal_theta_equals_the_per_tilt_loop(noise, delta, tau_grid):
    # the search lands 1e-12 to 1e-10 off the closed form on these grids,
    # 1e-8 off on criterion 7's
    assert abs(optimal_theta_per_tilt(noise, delta, tau_grid)
               - OPTIMAL_THETA) < 2e-8


@pytest.mark.parametrize("noise, delta, tau_grid", _TILT_CASES)
def test_zero_bias_slope_factorizes_in_the_tilt(noise, delta, tau_grid):
    # slope(theta) / cos^3 sin^2 (theta) is one tilt-free factor
    # -4 tau [cos(delta tau) exp(-F1) + exp(-2 (F1 + dF))] at every tau and
    # detuning, so one tilt is steepest on every grid.  Checked to 1e-12 of
    # the factor's size before its two terms cancel, which is the float
    # accuracy of a slope near one of its zeros.
    ramsey_like, half_period, _ = filter_exponents(noise, tau_grid)
    rng = np.random.default_rng(1717)
    for d in [delta, *rng.uniform(-6.0, 6.0, 20)]:
        fringe = np.cos(d * tau_grid) * np.exp(-half_period)
        echo = np.exp(-ramsey_like)
        want = -4 * tau_grid * (fringe + echo)
        size = 4 * tau_grid * (np.abs(fringe) + echo)
        for th in rng.uniform(1e-3, np.pi / 2 - 1e-3, 5):
            got = (hr_signal_derivative(th, d, 0.0, noise, tau_grid)
                   / (np.cos(th) ** 3 * np.sin(th) ** 2))
            assert (np.abs(got - want) <= 1e-12 * size).all(), (th, d)


@pytest.mark.parametrize("theta, delta, noise", [
    (THETA, 0.0, FIG_NOISE), (0.7, 1.3, FIG_NOISE), (0.3, 0.4, NoiseParams(1.0, 0.5)),
    (1.2, 0.0, NoiseParams(0.3, 1.0)), (0.95, 3.0, NoiseParams(10.0, 3.0)),
    (THETA, 2 * np.pi, QUIET)])
def test_max_bias_slope_matches_the_per_tau_search(theta, delta, noise):
    taus = np.linspace(0.1, 10.0, 60) / noise.lam
    slopes = max_bias_slope(theta, delta, noise, taus)
    assert slopes.shape == taus.shape
    want = [_max_bias_slope_per_tau(theta, delta, noise, t) for t in taus]
    np.testing.assert_allclose(slopes, want, rtol=1e-14, atol=0)
    singles = [max_bias_slope(theta, delta, noise, float(t))
               for t in taus]
    assert all(isinstance(s, float) for s in singles)
    np.testing.assert_allclose(singles, want, rtol=1e-14, atol=0)


def _grid_peak_and_dense_max_near_pi(theta, delta, tau):
    """The index of the largest |slope| on an 801-point grid of u over
    [-pi, pi], and the largest |slope| on a 2e6-point grid's spacing over
    the +-0.05 around u = pi."""
    grid = np.linspace(-np.pi, np.pi, 801)
    k = np.abs(hr_signal_derivative(theta, delta, grid / tau,
                                    FIG_NOISE, tau)).argmax()
    dense_us = np.pi + np.arange(-15_915, 15_916) * (2 * np.pi / 2e6)
    return k, np.abs(hr_signal_derivative(theta, delta, dense_us / tau,
                                          FIG_NOISE, tau)).max()


def test_max_bias_slope_wraps_its_bracket_at_the_grid_ends():
    # the slope is 2 pi-periodic in u = epsilon tau; here an 801-point grid's
    # maximum is u = pi and the peak lies just past it, at u = -pi + 6.5e-4
    theta, delta = 0.7, 1.3
    tau = np.linspace(0.1, 10.0, 60)[24] / FIG_NOISE.lam
    k, dense = _grid_peak_and_dense_max_near_pi(theta, delta, tau)
    assert k == 800
    got = max_bias_slope(theta, delta, FIG_NOISE, tau)
    assert got == pytest.approx(dense, rel=1e-12, abs=0)


def test_max_bias_slope_at_a_resonant_tilt():
    # at theta = pi/2, p and q carry cos^3 and cos^2 of 6e-17: the steepest
    # slope is about 1e-33, and the quartic's roots keep its digits
    taus = np.linspace(0.1, 10.0, 60) / FIG_NOISE.lam
    with np.errstate(all="raise"):
        got = max_bias_slope(np.pi / 2, 0.0, FIG_NOISE, taus)
    assert (got > 0).all() and got.max() < 1e-32
    want = [_max_bias_slope_per_tau(np.pi / 2, 0.0, FIG_NOISE, t) for t in taus]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_max_bias_slope_is_zero_where_both_decays_underflow():
    # at lam tau = 1e5 and 1e6, exp(-chi_1) and exp(-chi_R) round to 0, so
    # p = q = 0, the quartic has no roots and u = pi gives the slope 0; the
    # underflow itself is the expected result, every other flag raises
    taus = np.array([1e5, 1e6]) / FIG_NOISE.lam
    with np.errstate(all="raise", under="ignore"):
        assert max_bias_slope(OPTIMAL_THETA, 0.0, FIG_NOISE, taus).tolist() == [0.0, 0.0]
        assert max_bias_slope(OPTIMAL_THETA, 0.0, FIG_NOISE, float(taus[0])) == 0.0


def test_max_bias_slope_with_its_stationary_point_at_u_pi():
    # the quartic's leading coefficient p a + 2 q b^2 vanishes where
    # cos(delta tau) = -(b/a)^2 exp(chi_1 - chi_R): its root t = infinity is
    # u = pi, the steepest point of this fringe
    theta, tau = OPTIMAL_THETA, 1.0
    a, b = np.cos(theta), np.sin(theta)
    ramsey_like, half_period, _ = filter_exponents(FIG_NOISE, tau)
    delta = np.arccos(-(b / a) ** 2 * np.exp(half_period - ramsey_like)) / tau
    p, q = _bias_slope_coefficients(theta, delta, FIG_NOISE, tau)
    assert abs(p * a + 2 * q * b ** 2) <= 1e-15 * abs(p)
    k, dense = _grid_peak_and_dense_max_near_pi(theta, delta, tau)
    assert k in (0, 800)
    with np.errstate(all="raise"):
        got = max_bias_slope(theta, delta, FIG_NOISE, tau)
    assert got == pytest.approx(dense, rel=1e-12, abs=0)


def _max_bias_slope_by_np_roots(theta, delta, noise, taus):
    """Oracle: max_bias_slope with one np.roots call per tau."""
    a, b2 = np.cos(theta), np.sin(theta) ** 2
    p, q = _bias_slope_coefficients(theta, delta, noise, taus)
    out = []
    for pk, qk, tau in zip(p, q, taus):
        roots = np.roots([pk * a + 2 * qk * b2, 16 * a * qk - 2 * pk,
                          -12 * qk * b2, -2 * pk - 16 * a * qk,
                          2 * qk * b2 - pk * a])
        us = np.append(2 * np.arctan(roots.real), np.pi)
        out.append(np.abs(hr_signal_derivative(theta, delta, us / tau,
                                               noise, tau)).max())
    return np.array(out)


def _delta_with_a_vanishing_leading_coefficient(theta, noise, taus):
    """(tau, delta) among taus and the few doubles around each tau's
    delta of test_max_bias_slope_with_its_stationary_point_at_u_pi where
    the quartic's leading coefficient p a + 2 q b^2 rounds to exactly 0."""
    a, b2 = np.cos(theta), np.sin(theta) ** 2
    for tau in taus:
        ramsey_like, half_period, _ = filter_exponents(noise, tau)
        start = np.arccos(-(b2 / a ** 2) * np.exp(half_period - ramsey_like)) / tau
        for k in range(-8, 9):
            delta = start + k * np.spacing(start)
            p, q = _bias_slope_coefficients(theta, delta, noise, tau)
            if p * a + 2 * q * b2 == 0.0:
                return tau, delta
    raise AssertionError("no vanishing leading coefficient found")


@pytest.mark.parametrize("theta", [0.1, THETA, 0.7, OPTIMAL_THETA, 1.2,
                                   np.pi / 2, 2.0, -0.5])
def test_max_bias_slope_matches_np_roots_per_tau(theta):
    # all quartics go to one eigvals call on np.roots' companion matrices;
    # the 1e5 and 1e6 / lam rows are all zeros (both decays underflow)
    for noise, delta in [(FIG_NOISE, 0.0), (FIG_NOISE, DELTA),
                         (NoiseParams(0.3, 1.0), -4.0), (QUIET, 1.3)]:
        taus = np.append(np.linspace(0.1, 10.0, 60), [1e5, 1e6]) / noise.lam
        with np.errstate(all="raise", under="ignore"):
            got = max_bias_slope(theta, delta, noise, taus)
            want = _max_bias_slope_by_np_roots(theta, delta, noise, taus)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_max_bias_slope_drops_a_degree_where_the_leading_coefficient_vanishes():
    # one row of the stack is a cubic, as np.roots makes it, among quartics
    theta = OPTIMAL_THETA
    tau, delta = _delta_with_a_vanishing_leading_coefficient(
        theta, FIG_NOISE, np.linspace(0.5, 2.0, 40))
    taus = np.append(np.linspace(0.1, 10.0, 60) / FIG_NOISE.lam, tau)
    with np.errstate(all="raise"):
        got = max_bias_slope(theta, delta, FIG_NOISE, taus)
        want = _max_bias_slope_by_np_roots(theta, delta, FIG_NOISE, taus)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_stacked_roots_are_np_roots_row_by_row():
    coeffs = np.array([[1.0, -2.0, 3.0, 0.5, -1.0],
                       [0.0, 2.0, -1.0, 4.0, 3.0],     # a cubic
                       [2.0, 0.0, -3.0, 0.0, 0.0],     # two roots 0
                       [0.0, 0.0, 0.0, 0.0, 0.0],      # no roots
                       [0.0, 0.0, 0.0, 0.0, 5.0],      # a constant: no roots
                       [0.0, 1.0, 1e-3, 0.0, 0.0],
                       [-3.0, 1.0, 2.0, 7.0, -0.25]])
    got = analysis._stacked_roots(coeffs)
    assert got.shape == (7, 4)
    for row, c in zip(got, coeffs):
        want = np.roots(c).real
        np.testing.assert_array_equal(row[:want.size], want)
        assert (row[want.size:] == np.inf).all()


# the benchmark tracer's contract, in a fresh process: a wrapper set on
# analysis.curve_fit is the one fit_decay calls, and no fit loads scipy
_COUNTED_FITS = """
import sys
import numpy as np
from hahnramsey import analysis
from hahnramsey.noise import NoiseParams

real = analysis.curve_fit
calls = []

def counting(*args, **kwargs):
    calls.append(1)
    return real(*args, **kwargs)

analysis.curve_fit = counting
t = np.linspace(0.0, 6.0, 50)
y = np.cos(1.7 * t) * np.exp(-((t / 2.0) ** 2))
fit = analysis.fit_decay(t, y)
assert abs(fit.tau_c - 2.0) < 1e-6
print(len(calls))
analysis.sensitivity(NoiseParams(2.5, 0.6), analysis.ReadoutModel(1.3, 0.7))
assert analysis.curve_fit is counting and "scipy" not in sys.modules
print(len(calls))
"""


def test_fit_decay_calls_a_wrapper_set_on_analysis_curve_fit():
    src = str(Path(hahnramsey.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _COUNTED_FITS],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # one curve_fit per oscillating fit: fit_decay, then the fringe fit
    # inside sensitivity
    assert proc.stdout.split() == ["1", "2"]
