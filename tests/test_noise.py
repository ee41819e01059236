from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from filter_oracle import (TARGET_ERROR, chi_filter, correlation, delta_f,
                           textbook_exponents)
from hahnramsey.analytic import closed_form_signal, component_weights
from hahnramsey import noise
from hahnramsey.noise import (FilterKind, NoiseKind, NoiseParams, _normals,
                              _ou_window_integrals, _renewal_window_integrals,
                              _x_minus_2_tanh_half, f1, filter_exponents)
from hahnramsey.spincore import SequenceKind

P = NoiseParams(2.5, 2 * np.pi * 0.1)
P_REN = NoiseParams(2.5, 2 * np.pi * 0.1, NoiseKind.RENEWAL)

taus_st = st.floats(min_value=1e-4, max_value=20.0)


def test_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(0.0, 1.0)
    with pytest.raises(ValueError):
        NoiseParams(1.0, -1.0)
    with pytest.raises(ValueError):
        NoiseParams(1.0, 0.5, NoiseKind.NONE)
    NoiseParams(1.0, 0.0, NoiseKind.NONE)   # fine


def test_f1_values():
    assert f1(P, 0.0) == 0.0
    # quadratic short-time limit
    tau = 1e-4
    assert f1(P, tau) == pytest.approx(P.gamma ** 2 * tau ** 2 / 2, rel=1e-3)
    assert f1(P, 1.0) == pytest.approx(0.0999325, rel=1e-5)


def test_f1_delta_f_against_quadrature():
    from scipy.integrate import quad
    lam, gam = P.lam, P.gamma
    for tau in (0.3, 1.0, 4.0):
        # same-interval: twice the smooth triangle t2 > t1
        inner = lambda t2: quad(
            lambda t1: gam ** 2 * np.exp(-lam * (t2 - t1)), 0, t2,
            epsabs=1e-13, epsrel=1e-12)[0]
        same = quad(inner, 0, tau, epsabs=1e-13, epsrel=1e-12)[0]
        ramsey_like, half_period, hahn_like = filter_exponents(P, tau)
        assert half_period == pytest.approx(same, rel=1e-8)
        innerx = lambda t2: quad(
            lambda t1: gam ** 2 * np.exp(-lam * (t2 - t1)), 0, tau,
            epsabs=1e-13, epsrel=1e-12)[0]
        cross = 0.5 * quad(innerx, tau, 2 * tau, epsabs=1e-13, epsrel=1e-12)[0]
        assert (ramsey_like - hahn_like) / 4 == pytest.approx(cross, rel=1e-8)


def _f1_delta_f_50_digits(x):
    """(x + e^-x - 1, (1 - e^-x)^2 / 2) in decimals that keep 50 digits
    through the cancellation."""
    with localcontext() as ctx:
        ctx.prec = 50 + max(0, round(-3 * np.log10(x)))
        d = Decimal(x)
        e = (-d).exp()
        return float(d + e - 1), float((1 - e) ** 2 / 2)


def test_f1_and_ramsey_like_keep_their_digits_at_small_lam_tau():
    unit = NoiseParams(1.0, 1.0)
    xs = np.concatenate([np.logspace(-100, 2, 81), np.linspace(0.04, 0.3, 131)])
    for x in xs:
        want_f1, want_df = _f1_delta_f_50_digits(x)
        ramsey_like, half_period, _ = filter_exponents(unit, x)
        assert half_period == pytest.approx(want_f1, rel=2e-15, abs=0)
        assert ramsey_like == pytest.approx(2 * (want_f1 + want_df), rel=2e-15, abs=0)
    # arrays take the same branches as scalars
    for column, exponent in zip(filter_exponents(unit, xs),
                                zip(*(filter_exponents(unit, x) for x in xs))):
        assert_allclose(column, exponent, rtol=0, atol=0)


@given(taus_st)
@settings(max_examples=80, deadline=None)
def test_dephasing_constant_invariants(tau):
    # F1 >= dF >= 0, dF below its long-time limit, and all three exponents
    # growing with tau
    eps = 1e-4
    now, later = filter_exponents(P, tau), filter_exponents(P, tau + eps)
    ramsey_like, half_period, hahn_like = now
    dF = (ramsey_like - hahn_like) / 4
    assert min(now) >= 0 and dF >= 0
    assert dF <= P.gamma ** 2 / (2 * P.lam ** 2) + 1e-15
    assert all(b >= a for a, b in zip(now, later))
    assert (later[0] - later[2]) / 4 >= dF - 1e-15


def test_filter_exponents_zero_cases():
    assert filter_exponents(P, 0.0) == (0.0, 0.0, 0.0)
    assert filter_exponents(NoiseParams(2.5, 0.0), 1.0) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        filter_exponents(P, [1.0, -1e-9])


def test_chi_filter_zero_cases():
    for kind in FilterKind:
        assert chi_filter(kind, P, 0.0) == 0.0
        assert chi_filter(kind, NoiseParams(2.5, 0.0), 1.0) == 0.0


@pytest.mark.parametrize("tau", [0.01 / 2.5, 0.2, 1.0, 4.0])
def test_chi_filter_identities(tau):
    # the quadrature oracle against filter_exponents and the closed forms
    for kind, exponent, closed in zip(FilterKind, filter_exponents(P, tau),
                                      textbook_exponents(P, tau)):
        assert chi_filter(kind, P, tau) == pytest.approx(exponent, rel=1e-4)
        assert chi_filter(kind, P, tau) == pytest.approx(closed, rel=1e-4)
        assert exponent == pytest.approx(closed, rel=1e-12)


def test_chi_filter_meets_its_target_error_against_the_closed_forms():
    taus = np.linspace(0.05, 7.0, 81)
    for kind, exponent, closed in zip(FilterKind, filter_exponents(P, taus),
                                      textbook_exponents(P, taus)):
        oracle = np.array([chi_filter(kind, P, tau) for tau in taus])
        assert np.abs(oracle - exponent).max() <= TARGET_ERROR
        assert np.abs(oracle - closed).max() <= TARGET_ERROR


@pytest.mark.parametrize("p", [P, NoiseParams(10.0, 3.0)])
@pytest.mark.parametrize("lam_tau", [1e-3, 0.5, 5.0, 50.0])
def test_filter_exponents_match_the_quadrature_oracle(lam_tau, p):
    tau = lam_tau / p.lam
    for kind, exponent in zip(FilterKind, filter_exponents(p, tau)):
        assert abs(chi_filter(kind, p, tau) - exponent) <= TARGET_ERROR


def test_chi_filter_hahn_matches_standard_echo_exponent():
    lam, gam = P.lam, P.gamma
    for tau in (0.5, 1.5, 3.0):
        expected = (gam / lam) ** 2 * (
            2 * lam * tau - 3 + 4 * np.exp(-lam * tau) - np.exp(-2 * lam * tau))
        assert chi_filter(FilterKind.HAHN_LIKE, P, tau) == pytest.approx(
            expected, rel=1e-4)
        assert filter_exponents(P, tau)[2] == pytest.approx(expected, rel=1e-12)


def test_chi_filter_equals_the_2n_panel_rule_on_the_components_grid():
    # the oracle's n-panel rule has converged to rounding: twice the panels
    # give the same value
    for tau in np.linspace(0.05, 7.0, 81):
        for kind in FilterKind:
            assert chi_filter(kind, P, tau) == pytest.approx(
                chi_filter(kind, P, tau, refine=2), rel=2e-15, abs=0)


def _hahn_exponent_digits(x):
    """2x - 3 + 4 e^-x - e^-2x, the Hahn-like exponent over (Gamma/lam)^2,
    in decimals that keep 50 digits through the cancellation to x^3/3."""
    with localcontext() as ctx:
        ctx.prec = 50 + max(0, round(-3 * np.log10(x)))
        d = Decimal(x)
        e = (-d).exp()
        return float(2 * d - 3 + 4 * e - e * e)


def test_filter_exponents_hahn_keeps_its_digits():
    # the echo column where 2 (F1 - dF) cancels: x = lam tau from 1e-100
    xs = np.concatenate([np.logspace(-100, 3, 104), np.linspace(0.15, 3.0, 115)])
    p = NoiseParams(2.5, 0.6283)
    scale = (p.gamma / p.lam) ** 2
    got = filter_exponents(p, xs / p.lam)[2]
    want = scale * np.array([_hahn_exponent_digits(x) for x in xs])
    assert_allclose(got, want, rtol=1e-15, atol=0)
    # scalars take the same branches as arrays
    assert [filter_exponents(p, t)[2] for t in xs / p.lam] == got.tolist()


_QUASI_STATIC = NoiseParams(1e-12, 1e6)     # (Gamma/lambda)^2 = 1e36
_QUASI_STATIC_TAUS = np.array([0.25, 0.5, 0.75, 1.0])


def _quasi_static_exponents_50_digits():
    """The (Ramsey-like, half-period, Hahn-like) exponents of _QUASI_STATIC
    at _QUASI_STATIC_TAUS from 50-digit decimals."""
    scale = (_QUASI_STATIC.gamma / _QUASI_STATIC.lam) ** 2
    out = []
    for x in _QUASI_STATIC.lam * _QUASI_STATIC_TAUS:
        f, df = _f1_delta_f_50_digits(x)
        out.append([2 * (f + df), f, _hahn_exponent_digits(x)])
    return scale * np.array(out).T


def test_quasi_static_hahn_echo_keeps_its_digits():
    # the echo decays on 1e36 x (2/3) (lambda tau)^3, whose digits
    # 2 (F1 - dF) loses to cancellation (8e-5 relative here)
    got = closed_form_signal(SequenceKind.HAHN_ECHO, np.pi / 2, 0.0,
                             _QUASI_STATIC, _QUASI_STATIC_TAUS)
    hahn = _quasi_static_exponents_50_digits()[2]
    assert_allclose(got, np.exp(-hahn), rtol=1e-13, atol=0)
    assert got[-1] == pytest.approx(0.51341711903284874, rel=1e-15)


def test_quasi_static_hahn_ramsey_keeps_its_digits():
    # the echo term carries the cancellation (6.7e-6 absolute here)
    theta, delta, taus = 0.6283, 1.885, _QUASI_STATIC_TAUS
    got = closed_form_signal(SequenceKind.HAHN_RAMSEY, theta, delta,
                             _QUASI_STATIC, taus)
    ramsey_like, half_period, hahn_like = _quasi_static_exponents_50_digits()
    w0, w1, w2, w3 = component_weights(theta)
    want = 2 * (w0 + w1 * np.exp(-ramsey_like)
                + w2 * np.cos(delta * taus) * np.exp(-half_period)
                + w3 * np.cos(2 * delta * taus) * np.exp(-hahn_like))
    assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("lam_tau", [1e-6, 1e5])
def test_filter_exponents_keep_their_digits_where_the_quadrature_ran_out_of_panels(lam_tau):
    # 1e8 and 3e6 panels would have taken the quadrature gigabytes of nodes
    tau = lam_tau / P.lam
    scale = (P.gamma / P.lam) ** 2
    want_f1, want_df = _f1_delta_f_50_digits(lam_tau)
    want = {FilterKind.RAMSEY_LIKE: 2 * (want_f1 + want_df),
            FilterKind.HALF_PERIOD: want_f1,
            FilterKind.HAHN_LIKE: _hahn_exponent_digits(lam_tau)}
    for kind, exponent in zip(FilterKind, filter_exponents(P, tau)):
        assert exponent == pytest.approx(scale * want[kind], rel=1e-13, abs=0)


def test_filter_exponents_are_finite_and_non_negative_over_the_input_range():
    # lam and gamma over the range the CLI accepts, tau from the smallest
    # subnormal to 1e12
    taus = np.concatenate([[0.0, 5e-324], np.logspace(-320, 12, 2000)])
    for lam in np.logspace(-12, 12, 25):
        for gamma in np.logspace(-12, 12, 9):
            p = NoiseParams(lam, gamma)
            for kind, out in zip(FilterKind, filter_exponents(p, taus)):
                assert np.isfinite(out).all() and (out >= 0).all(), (kind, lam, gamma)


# --------------------------------------------------------------------------
# exact window kernels: the noise samplers of the Monte Carlo engine


def _var_within(sample, expected, k=4):
    var = sample.var(ddof=1)
    return abs(var - expected) < k * var * np.sqrt(2 / (sample.size - 1))


def _cov_within(a, b, expected, k=4):
    prod = (a - a.mean()) * (b - b.mean())
    return abs(prod.mean() - expected) < k * prod.std(ddof=1) / np.sqrt(a.size)


def _ou_integrals(tau, n, seed):
    """OU integrals over one window of length tau from a stationary start."""
    rng = np.random.default_rng(seed)
    return _ou_window_integrals(rng, None, P.lam, P.gamma, tau, n)[1]


def _chain(kernel, rng, state, lam, gamma, durations, n):
    """Consecutive windows as the Monte Carlo sampler draws them: one
    kernel call per window, the state carried from each window to the
    next, the last window without its end state; returns (what the kernel
    gives for the last end state, the integrals of the windows)."""
    xs = []
    for k, dur in enumerate(durations):
        state, x = kernel(rng, state, lam, gamma, dur, n, k < len(durations) - 1)
        xs.append(x)
    return state, xs


def _ou_end_value(rng, state, gamma):
    """f at the end of the windows drawn so far, from the OU state (m, p):
    m + Gamma sqrt(p) z', jointly exact with the integrals drawn."""
    m, p = state
    return m + gamma * np.sqrt(p) * rng.normal(0.0, 1.0, np.size(m))


def test_ou_zero_strength_is_silent():
    rng = np.random.default_rng(5)
    (m, _), x = _ou_window_integrals(rng, None, 2.5, 0.0, 0.3, 11)
    assert (m == 0.0).all() and (x == 0.0).all()
    end, xs = _chain(_ou_window_integrals, rng, None, 2.5, 0.0, [0.3, 1.0], 11)
    assert end is None and (np.array(xs) == 0.0).all()


def test_ou_stationary_statistics():
    # f at the times 0, 0.4 and 1: from a stationary value f(t_i), held
    # as the known state (f(t_i), 0), the windows up to t_j and f(t_j)
    # rebuilt from the state they leave
    n, times = 100_000, np.array([0.0, 0.4, 1.0])
    rng = np.random.default_rng(999)
    se = P.gamma / np.sqrt(n)
    for (i, j) in [(0, 1), (0, 2), (1, 2)]:
        start = rng.normal(0.0, P.gamma, n)
        durations = np.diff(times[i:j + 1])
        state = (start, 0.0)
        for dur in durations:
            state, _ = _ou_window_integrals(rng, state, P.lam, P.gamma, dur, n)
        end = _ou_end_value(rng, state, P.gamma)
        assert abs(end.mean()) < 4 * se
        assert _var_within(end, P.gamma ** 2)
        # lagged autocovariance vs the exponential correlation
        prod = start * end
        se_cov = prod.std(ddof=1) / np.sqrt(n)
        assert abs(prod.mean() - correlation(P, times[j] - times[i])) < 4 * se_cov


def test_ou_integral_variance_matches_2f1():
    # Var(integral of f over [0, tau]) = 2 F1(tau)
    tau = 1.0
    x = _ou_integrals(tau, 100_000, 77)
    assert _var_within(x, 2 * f1(P, tau))


def test_gaussian_averaging_identity():
    # mean of exp(i * integral f) equals exp(-F1) for the OU process
    n = 100_000
    for tau in (0.5, 1.0, 2.0):
        x = _ou_integrals(tau, n, int(1000 * tau))
        phasors = np.exp(1j * x)
        emp = phasors.mean()
        se_re = phasors.real.std(ddof=1) / np.sqrt(n)
        se_im = phasors.imag.std(ddof=1) / np.sqrt(n)
        assert abs(emp.real - np.exp(-f1(P, tau))) < 4 * se_re
        assert abs(emp.imag) < 4 * se_im


@pytest.mark.parametrize("lam_t", [0.01, 1.0, 7.0])
def test_ou_window_kernel_moments(lam_t):
    n, tau = 200_000, lam_t / P.lam
    lam, gam = P.lam, P.gamma
    rng = np.random.default_rng(int(100 * lam_t))
    # stationary start: Var X = 2 F1, Cov(X1, X2) = 2 dF over adjacent windows
    _, (x1, x2) = _chain(_ou_window_integrals, rng, None, lam, gam, [tau, tau], n)
    assert _var_within(x1, 2 * f1(P, tau))
    assert _var_within(x2, 2 * f1(P, tau))
    assert _cov_within(x1, x2, 2 * delta_f(P, tau))
    # fixed start c, the state (c, 0): the joint Gaussian moments of
    # (f(T), X) given f(0)
    c, e = 0.8 * gam, np.exp(-lam_t)
    state, x = _ou_window_integrals(rng, (np.full(n, c), 0.0), lam, gam, tau, n)
    f_end = _ou_end_value(rng, state, gam)
    var_x = (2 * gam ** 2 / lam ** 2 * (lam_t + np.expm1(-lam_t))
             - gam ** 2 * (1 - e) ** 2 / lam ** 2)
    assert abs(f_end.mean() - c * e) < 4 * gam * np.sqrt((1 - e * e) / n)
    assert abs(x.mean() - c * (1 - e) / lam) < 4 * np.sqrt(var_x / n)
    assert _var_within(f_end, gam ** 2 * (1 - e * e))
    assert _var_within(x, var_x)
    assert _cov_within(f_end, x, gam ** 2 / lam * (1 - e) ** 2)
    # the end-free form: the same law of X given f(0), no end state
    state, x = _ou_window_integrals(rng, (np.full(n, c), 0.0), lam, gam, tau, n,
                                    False)
    assert state is None
    assert abs(x.mean() - c * (1 - e) / lam) < 4 * np.sqrt(var_x / n)
    assert _var_within(x, var_x)


def test_ou_window_kernel_covariance_of_unequal_windows():
    # three consecutive windows of lam h = 0.01, 1 and 7 from a stationary
    # start: Var X_i = 2 F1(h_i), and for i < j
    # Cov(X_i, X_j) = (Gamma/lam)^2 q_i q_j exp(-lam gap), q = 1 - exp(-lam h),
    # gap the time between the end of window i and the start of window j
    n, lam_h = 200_000, np.array([0.01, 1.0, 7.0])
    h = lam_h / P.lam
    _, xs = _chain(_ou_window_integrals, np.random.default_rng(31), None,
                   P.lam, P.gamma, h, n)
    q = -np.expm1(-lam_h)
    starts = np.concatenate([[0.0], np.cumsum(h)])
    for i in range(3):
        assert _var_within(xs[i], 2 * f1(P, h[i]))
        for j in range(i + 1, 3):
            gap = starts[j] - starts[i + 1]
            want = (P.gamma / P.lam) ** 2 * q[i] * q[j] * np.exp(-P.lam * gap)
            assert _cov_within(xs[i], xs[j], want), (i, j)


def test_ou_window_kernel_keeps_its_state_over_many_tiny_windows():
    # 1e5 windows of lam h = 1e-12: the variance p stays finite in (0, 1],
    # and the sum of the integrals has the variance 2 F1 of the whole span
    n, steps, h = 500, 100_000, 1e-12 / P.lam
    rng = np.random.default_rng(41)
    state, total = None, np.zeros(n)
    p_min = p_max = 1.0
    for _ in range(steps):
        state, x = _ou_window_integrals(rng, state, P.lam, P.gamma, h, n)
        total += x
        p_min, p_max = min(p_min, state[1]), max(p_max, state[1])
    assert np.isfinite(state[0]).all()
    assert 0.0 < p_min and p_max <= 1.0 and np.isfinite(p_min)
    assert _var_within(total, 2 * f1(P, steps * h))


@pytest.mark.parametrize("lam_t", [0.01, 1.0, 7.0])
def test_ou_window_kernel_matches_stepped_oracle(lam_t, sample_ou_ensemble):
    # fine trapezoid integrals of the stepped exact-transition chain
    n, tau, steps = 10_000, lam_t / P.lam, 100
    grid = np.linspace(0.0, 2 * tau, 2 * steps + 1)
    vals = sample_ou_ensemble(P, grid, n, 5)
    o1 = np.trapezoid(vals[:, :steps + 1], grid[:steps + 1], axis=1)
    o2 = np.trapezoid(vals[:, steps:], grid[steps:], axis=1)
    _, (x1, x2) = _chain(_ou_window_integrals, np.random.default_rng(6), None,
                         P.lam, P.gamma, [tau, tau], n)
    for a, b in ((o1, x1), (o2, x2)):
        va, vb = a.var(ddof=1), b.var(ddof=1)
        assert abs(va - vb) < 4 * np.hypot(va, vb) * np.sqrt(2 / (n - 1))
    ca, cb = np.cov(o1, o2)[0, 1], np.cov(x1, x2)[0, 1]
    se = np.hypot((o1 * o2).std(), (x1 * x2).std()) / np.sqrt(n)
    assert abs(ca - cb) < 4 * se


class _ScaleRecorder:
    """Stands in for noise._normals and records the scale of every draw."""

    def __init__(self):
        self.scales = []

    def __call__(self, rng, n, scale):
        self.scales.append(scale)
        return _normals(rng, n, scale)


def test_ou_window_kernel_tiny_window_variances(monkeypatch):
    lam_t = 1e-9
    rec = _ScaleRecorder()
    monkeypatch.setattr(noise, "_normals", rec)
    rng = np.random.default_rng(3)
    f0 = np.linspace(-1.0, 1.0, 7)
    for with_end in (True, False):
        rec.scales = []
        state, x = _ou_window_integrals(rng, (f0, 0.0), P.lam, P.gamma,
                                        lam_t / P.lam, f0.size, with_end)
        # one draw, its scale X's standard deviation given f(0):
        # (2/3 - x/2) x^3 (Gamma/lam)^2 (the x^5 term is 1e-18 of it)
        assert len(rec.scales) == 1
        assert np.isfinite(rec.scales[0]) and rec.scales[0] >= 0
        assert rec.scales[0] ** 2 == pytest.approx(
            (2 / 3 - lam_t / 2) * lam_t ** 3 * (P.gamma / P.lam) ** 2, rel=1e-12, abs=0)
        assert np.isfinite(x).all()
        # X = T f0 up to the O(sqrt(lam T)) change of f over the window
        assert_allclose(x, f0 * 1e-9 / P.lam, rtol=0, atol=1e-3 * 1e-9 / P.lam)
    assert state is None
    # the end state: f(T) given f(0) and X keeps its O(x) variance, x/2
    # Gamma^2 to first order
    (m, p), _ = _ou_window_integrals(rng, (f0, 0.0), P.lam, P.gamma, lam_t / P.lam,
                                     f0.size)
    assert np.isfinite(m).all()
    assert p == pytest.approx(lam_t / 2, rel=1e-6)


def _x_minus_2_tanh_half_50_digits(x):
    """x - 2 tanh(x/2) = x - 2 (1 - e^-x)/(1 + e^-x) in decimals that keep
    50 digits through the cancellation of the leading x."""
    with localcontext() as ctx:
        ctx.prec = 50 + max(0, round(-3 * np.log10(x)))
        d = Decimal(x)
        e = (-d).exp()
        return float(d - 2 * (1 - e) / (1 + e))


def test_x_minus_2_tanh_half_keeps_its_digits():
    # the series below the switch at x = 2, the direct form above it
    xs = np.concatenate([np.logspace(-100, -1, 60), np.linspace(0.15, 3.0, 115),
                         np.logspace(-0.5, 3, 30)])
    for x in xs:
        assert _x_minus_2_tanh_half(x) == pytest.approx(
            _x_minus_2_tanh_half_50_digits(x), rel=1e-15, abs=0)
    # the direct difference rounds to 0 where the value is x^3/12
    x = 1e-8
    assert x - 2 * np.tanh(x / 2) == 0.0
    assert _x_minus_2_tanh_half(x) == pytest.approx(x ** 3 / 12, rel=1e-15)
    assert _x_minus_2_tanh_half(0.0) == 0.0


def test_x_minus_2_tanh_half_float_path_keeps_its_digits():
    # a Python float, as the OU kernel passes, takes the math path
    xs = np.concatenate([np.logspace(-100, -1, 60), np.linspace(0.15, 3.0, 115),
                         np.logspace(-0.5, 3, 30), [2.0 - 2 ** -52, 2.0]])
    for x in xs.tolist():
        got = _x_minus_2_tanh_half(x)
        assert type(got) is float
        assert got == pytest.approx(_x_minus_2_tanh_half_50_digits(x), rel=6e-16, abs=0)
    assert _x_minus_2_tanh_half(0.0) == 0.0


# --------------------------------------------------------------------------
# Box-Muller normals: every normal of both window kernels


def _within(got, want, se, k=5):
    return abs(got - want) < k * se


def test_normals_moments_and_shares():
    # 1e6 draws at scale 2: mean, variance, 4th moment and the shares
    # within 1, 2 and 3 sigma, each within 5 standard errors
    n, scale = 10 ** 6, 2.0
    z = _normals(np.random.default_rng(2024), n, scale) / scale
    assert z.shape == (n,)
    assert _within(z.mean(), 0.0, 1 / np.sqrt(n))
    assert _within((z ** 2).mean(), 1.0, np.sqrt(2 / n))
    assert _within((z ** 4).mean(), 3.0, np.sqrt((105 - 9) / n))
    for k, share in ((1, 0.6826894921370859), (2, 0.9544997361036416),
                     (3, 0.9973002039367398)):
        assert _within((np.abs(z) < k).mean(), share, np.sqrt(share * (1 - share) / n))


def test_normals_cos_and_sin_halves_are_uncorrelated():
    n = 10 ** 6
    z = _normals(np.random.default_rng(77), n, 1.0)
    a, b = z[:n // 2], z[n // 2:]
    assert _cov_within(a, b, 0.0, k=5)
    # the same radius, so their squares are correlated only through it:
    # Cov(a^2, b^2) = E r^4 cos^2 sin^2 - 1 = 8/8 - 1 = 0
    assert _cov_within(a * a, b * b, 0.0, k=5)


class _StubUniforms:
    """A generator whose uniforms are the given values, in turn."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)

    def random(self, size):
        return np.resize(self._values, size)


@pytest.mark.parametrize("u", [0.0, 1.0 - 2 ** -53])
@pytest.mark.parametrize("v", [0.0, 0.25, 0.5, 1.0 - 2 ** -53])
def test_normals_stay_finite_at_the_ends_of_the_uniforms(u, v):
    # radius from u, angle from v: the largest radius sqrt(106 ln 2) = 8.57
    z = _normals(_StubUniforms([u, v]), 2, 1.5)
    assert np.isfinite(z).all()
    assert (np.abs(z) <= 8.6 * 1.5).all()
    assert np.hypot(*z) == pytest.approx(1.5 * np.sqrt(-2 * np.log1p(-u)), rel=1e-15,
                                         abs=0)


@pytest.mark.parametrize("scale", [1.0, 0.37, 3e5])
def test_normals_match_the_cos_sin_box_muller_oracle(scale):
    # the radius scale sqrt(-2 log1p(-u)) from the first half of the
    # uniforms, the angle 2 pi v - pi from the second, the cos half first;
    # within 4 ulp of the radius (3.2 measured over 4e5 values)
    rng = np.random.default_rng(13)
    k = 20_000
    u = np.concatenate([[0.0, 0.5, 1.0 - 2 ** -53, 2 ** -53], rng.random(k - 4)])
    v = np.concatenate([[0.0, 0.25, 0.5, 0.75, 1.0 - 2 ** -53, 2 ** -53],
                        rng.random(k - 6)])
    got = _normals(_StubUniforms(np.concatenate([u, v])), 2 * k, scale)
    rad = scale * np.sqrt(-2.0 * np.log1p(-u))
    angle = 2 * np.pi * v - np.pi
    for half, want in ((got[:k], rad * np.cos(angle)), (got[k:], rad * np.sin(angle))):
        assert (np.abs(half - want) <= 4 * np.finfo(float).eps * rad).all()


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8192 + 101])
def test_normals_return_n_values(n):
    z = _normals(np.random.default_rng(5), n, 0.7)
    assert z.shape == (n,) and np.isfinite(z).all()
    # the even count reads the same uniforms, so z is its first n values
    assert_allclose(z, _normals(np.random.default_rng(5), n + n % 2, 0.7)[:n],
                    rtol=0, atol=0)


@pytest.mark.parametrize("kernel, start", [
    (_ou_window_integrals, (np.linspace(-1.0, 1.0, 50), 0.3)),
    (_renewal_window_integrals, np.linspace(-1.0, 1.0, 50))], ids=["ou", "renewal"])
def test_window_kernel_zero_window_is_identity(kernel, start):
    rng = np.random.default_rng(4)
    state, x = kernel(rng, start, P.lam, P.gamma, 0.0, 50)
    assert np.array_equal(np.hstack(state), np.hstack(start))
    assert (x == 0.0).all()
    assert (kernel(rng, start, P.lam, P.gamma, 0.0, 50, False)[1] == 0.0).all()
    # and between two windows
    _, x = _chain(kernel, rng, start, P.lam, P.gamma, [0.5, 0.0, 0.5], 50)
    assert (x[1] == 0.0).all()


@pytest.mark.parametrize("lam_t", [0.01, 1.0, 7.0])
def test_renewal_window_kernel_moments(lam_t):
    n, tau = 100_000, lam_t / P.lam
    rng = np.random.default_rng(int(100 * lam_t))
    # stationary start: the same second moments as OU noise
    f0 = rng.normal(0.0, P.gamma, n)
    f_end, (x1, x2) = _chain(_renewal_window_integrals, rng, f0, P.lam, P.gamma,
                             [tau, tau], n)
    assert _var_within(x1, 2 * f1(P, tau))
    assert _var_within(x2, 2 * f1(P, tau))
    assert _cov_within(x1, x2, 2 * delta_f(P, tau))
    assert _var_within(f_end, P.gamma ** 2)
    assert _cov_within(f0, f_end, correlation(P_REN, 2 * tau))
    # the start value is held to the end when no event falls in 2 tau
    kept = np.exp(-2 * lam_t)
    assert abs((f_end == f0).mean() - kept) < 4 * np.sqrt(kept * (1 - kept) / n)


class _DrawRecorder:
    """Generator wrapper that records the size of every exponential and
    uniform draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.exponential_sizes, self.random_sizes = [], []

    def exponential(self, scale, size):
        self.exponential_sizes.append(size)
        return self._rng.exponential(scale, size)

    def random(self, size):
        self.random_sizes.append(size)
        return self._rng.random(size)


def test_renewal_window_kernel_draws_nothing_for_finished_trajectories():
    n = 2000
    rng = _DrawRecorder(5)
    f = np.random.default_rng(6).normal(0.0, P.gamma, n)
    odd = 0
    for dur in (0.3, 0.9, 0.3):
        rng.exponential_sizes, rng.random_sizes = [], []
        f, _ = _renewal_window_integrals(rng, f, P.lam, P.gamma, dur, n)
        waits = rng.exponential_sizes
        # a pass draws one waiting time per trajectory still short of the
        # end, then one value per trajectory whose event fell before the
        # end: those are the ones the next pass draws for
        assert waits[0] == n and all(a >= b > 0 for a, b in zip(waits, waits[1:]))
        values = waits[1:] + [0]
        # each value is a Box-Muller normal, so a pass of w values reads
        # 2 ceil(w/2) uniforms: one it does not use when w is odd
        assert rng.random_sizes == [2 * (-(-w // 2)) for w in values]
        odd += sum(w % 2 for w in values)
    assert odd > 0


def test_renewal_window_kernel_ignores_with_end():
    # it draws nothing it does not read, so both forms draw the same
    f0 = np.random.default_rng(8).normal(0.0, P.gamma, 500)
    a = _renewal_window_integrals(np.random.default_rng(9), f0, P.lam, P.gamma, 0.7,
                                  500)
    b = _renewal_window_integrals(np.random.default_rng(9), f0, P.lam, P.gamma, 0.7,
                                  500, False)
    assert all((u == v).all() for u, v in zip(a, b))


def test_renewal_constant_in_no_jump_limit():
    rng = np.random.default_rng(7)
    f0 = rng.normal(0.0, 1.0, 1000)
    f_end, x = _renewal_window_integrals(rng, f0, 1e-9, 1.0, 10.0, 1000)
    assert (f_end == f0).all()
    assert (x == f0 * 10.0).all()
