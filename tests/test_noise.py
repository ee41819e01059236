import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from hahnramsey.noise import (FilterKind, NoiseKind, NoiseParams,
                              QuadratureError, _chi_filter_with_error,
                              _ou_window_integrals, _panel_sum,
                              _renewal_window_integrals, chi_filter,
                              correlation, delta_f, f1)

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


def test_correlation_values():
    assert correlation(P, 0.0) == pytest.approx(P.gamma ** 2)
    assert correlation(P, 1e6) == pytest.approx(0.0, abs=1e-300)
    assert correlation(P, 1.0) == pytest.approx(0.0324059, rel=1e-5)
    assert correlation(P, -1.0) == correlation(P, 1.0)


def test_f1_values():
    assert f1(P, 0.0) == 0.0
    # quadratic short-time limit
    tau = 1e-4
    assert f1(P, tau) == pytest.approx(P.gamma ** 2 * tau ** 2 / 2, rel=1e-3)
    assert f1(P, 1.0) == pytest.approx(0.0999325, rel=1e-5)


def test_delta_f_values():
    assert delta_f(P, 0.0) == 0.0
    limit = P.gamma ** 2 / (2 * P.lam ** 2)
    assert delta_f(P, 1e3) == pytest.approx(limit, rel=1e-12)


def test_f1_delta_f_against_quadrature():
    from scipy.integrate import quad
    lam, gam = P.lam, P.gamma
    for tau in (0.3, 1.0, 4.0):
        # same-interval: twice the smooth triangle t2 > t1
        inner = lambda t2: quad(
            lambda t1: gam ** 2 * np.exp(-lam * (t2 - t1)), 0, t2,
            epsabs=1e-13, epsrel=1e-12)[0]
        same = quad(inner, 0, tau, epsabs=1e-13, epsrel=1e-12)[0]
        assert f1(P, tau) == pytest.approx(same, rel=1e-8)
        innerx = lambda t2: quad(
            lambda t1: gam ** 2 * np.exp(-lam * (t2 - t1)), 0, tau,
            epsabs=1e-13, epsrel=1e-12)[0]
        cross = 0.5 * quad(innerx, tau, 2 * tau, epsabs=1e-13, epsrel=1e-12)[0]
        assert delta_f(P, tau) == pytest.approx(cross, rel=1e-8)


@given(taus_st)
@settings(max_examples=80, deadline=None)
def test_dephasing_constant_invariants(tau):
    F1, dF = f1(P, tau), delta_f(P, tau)
    assert F1 >= 0
    assert F1 - dF >= -1e-15
    assert F1 + dF >= 0
    assert dF <= P.gamma ** 2 / (2 * P.lam ** 2) + 1e-15
    eps = 1e-4
    assert f1(P, tau + eps) >= f1(P, tau)
    assert delta_f(P, tau + eps) >= delta_f(P, tau) - 1e-15


def test_chi_filter_zero_cases():
    for kind in FilterKind:
        assert chi_filter(kind, P, 0.0) == 0.0
        assert chi_filter(kind, NoiseParams(2.5, 0.0), 1.0) == 0.0


@pytest.mark.parametrize("tau", [0.01 / 2.5, 0.2, 1.0, 4.0])
def test_chi_filter_identities(tau):
    F1, dF = f1(P, tau), delta_f(P, tau)
    assert chi_filter(FilterKind.RAMSEY_LIKE, P, tau) == pytest.approx(
        2 * (F1 + dF), rel=1e-4)
    assert chi_filter(FilterKind.HALF_PERIOD, P, tau) == pytest.approx(
        F1, rel=1e-4)
    assert chi_filter(FilterKind.HAHN_LIKE, P, tau) == pytest.approx(
        2 * (F1 - dF), rel=1e-4)


def _closed_form_exponent(kind, p, tau):
    F1, dF = f1(p, tau), delta_f(p, tau)
    return {FilterKind.RAMSEY_LIKE: 2 * (F1 + dF), FilterKind.HALF_PERIOD: F1,
            FilterKind.HAHN_LIKE: 2 * (F1 - dF)}[kind]


def test_chi_filter_meets_its_target_error_against_the_closed_forms():
    worst = max(abs(chi_filter(kind, P, tau) - _closed_form_exponent(kind, P, tau))
                for tau in np.linspace(0.05, 7.0, 81) for kind in FilterKind)
    assert worst <= 1e-8      # the default target_error


def _chi_filter_rule(kind, p, tau, target_error=1e-8):
    """chi_filter's rule written out: (half_t, power, pref, w_max, n, tail)."""
    lam = p.lam
    half_t = tau if kind is FilterKind.RAMSEY_LIKE else tau / 2
    power = 4 if kind is FilterKind.HAHN_LIKE else 2
    pref = (16.0 if power == 4 else 4.0) * lam * p.gamma ** 2 / np.pi
    mean = 0.375 if power == 4 else 0.5
    floor = max(50.0 * lam, 50.0 / tau)
    need = (pref / (half_t * target_error)) ** 0.25
    w_max = max(floor, min(need, 100.0 * floor))
    n = int(np.ceil(w_max / min(np.pi / (2.0 * tau), lam / 2.0, w_max / 8.0)))
    tail = mean / lam ** 2 * (1.0 / w_max - (np.pi / 2 - np.arctan(w_max / lam)) / lam)
    return half_t, power, pref, w_max, n, tail


def _chi_filter_per_node(kind, p, tau, target_error=1e-8):
    """Oracle: the same cutoff, panels and tail as chi_filter, with one
    sin per Gauss-Legendre node on np.linspace panel edges."""
    half_t, power, pref, w_max, n, tail = _chi_filter_rule(kind, p, tau, target_error)
    edges = np.linspace(0.0, w_max, n + 1)
    nodes, weights = leggauss(12)
    a, h = edges[:-1, None], np.diff(edges)[:, None]
    w = (a + 0.5 * h * (nodes + 1.0)).ravel()
    rule = (np.sin(w * half_t) ** power / (w * w * (w * w + p.lam ** 2))
            @ (0.5 * h * weights).ravel())
    return pref * (rule + tail)


def _panel_sum_with_temporaries(half_t, power, lam, w_max, n):
    """Oracle: _panel_sum's operations in the same order, each into a new
    array."""
    h = w_max / n
    c = 0.5 * h * (leggauss(12)[0] + 1.0)
    start = h * np.arange(n)[:, None]
    s = (np.sin(half_t * start) * np.cos(half_t * c)
         + np.cos(half_t * start) * np.sin(half_t * c))
    s2 = s * s
    window = s2 if power == 2 else s2 * s2
    x2 = (start + c) ** 2
    return float(np.sum(window / (x2 * (x2 + lam * lam))
                        @ (0.5 * h * leggauss(12)[1])))


@pytest.mark.parametrize("power", [2, 4])
@pytest.mark.parametrize("half_t, lam, w_max, n", [
    (1.3, 2.5, 125.0, 1), (0.5, 2.5, 125.0, 160), (3.5, 0.3, 40.0, 1703),
    (0.01, 10.0, 5000.0, 20000)])
def test_panel_sum_equals_the_sum_with_temporaries(half_t, power, lam, w_max, n):
    assert _panel_sum(half_t, power, lam, w_max, n) == \
        _panel_sum_with_temporaries(half_t, power, lam, w_max, n)


@pytest.mark.parametrize("p", [P, NoiseParams(10.0, 3.0)])
@pytest.mark.parametrize("lam_tau", [1e-3, 0.5, 5.0, 50.0])
def test_chi_filter_matches_the_per_node_oracle(lam_tau, p):
    tau = lam_tau / p.lam
    for kind in FilterKind:
        assert chi_filter(kind, p, tau) == pytest.approx(
            _chi_filter_per_node(kind, p, tau), rel=1e-13, abs=0)


def test_chi_filter_equals_the_2n_panel_rule_on_the_components_grid():
    # the reported n-panel rule has converged to rounding: twice the panels
    # give the same value
    for tau in np.linspace(0.05, 7.0, 81):
        for kind in FilterKind:
            value, err = _chi_filter_with_error(kind, P, tau, 1e-8)
            half_t, power, pref, w_max, n, tail = _chi_filter_rule(kind, P, tau)
            fine = pref * (_panel_sum(half_t, power, P.lam, w_max, 2 * n) + tail)
            assert value == chi_filter(kind, P, tau)
            assert value == pytest.approx(fine, rel=2e-15, abs=0)
            # the estimate stays within its target and bounds the true error
            assert abs(value - _closed_form_exponent(kind, P, tau)) <= err <= 1e-8


@pytest.mark.parametrize("lam_tau", [1e-6, 1e5])
def test_chi_filter_refuses_rules_beyond_its_panel_budget(lam_tau):
    # 1e8 and 3e6 panels: gigabytes of nodes, refused before allocation
    with pytest.raises(QuadratureError, match="panels"):
        chi_filter(FilterKind.HAHN_LIKE, P, lam_tau / P.lam)


def test_chi_filter_hahn_matches_standard_echo_exponent():
    lam, gam = P.lam, P.gamma
    for tau in (0.5, 1.5, 3.0):
        expected = (gam / lam) ** 2 * (
            2 * lam * tau - 3 + 4 * np.exp(-lam * tau) - np.exp(-2 * lam * tau))
        assert chi_filter(FilterKind.HAHN_LIKE, P, tau) == pytest.approx(
            expected, rel=1e-4)


def test_chi_filter_reports_nonconvergence():
    with pytest.raises(QuadratureError):
        chi_filter(FilterKind.RAMSEY_LIKE, P, 2.0, target_error=1e-18)


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
    f0 = rng.normal(0.0, P.gamma, n)
    return _ou_window_integrals(rng, f0, P.lam, P.gamma, tau)[1]


def _chain(kernel, rng, f0, lam, gamma, durations):
    """Consecutive windows as the Monte Carlo sampler draws them: one
    kernel call per window, f carried from each window's end to the next;
    returns (f at the last end, the integrals of the windows)."""
    f, xs = f0, []
    for dur in durations:
        f, x = kernel(rng, f, lam, gamma, dur)
        xs.append(x)
    return f, xs


def test_ou_zero_strength_is_silent():
    rng = np.random.default_rng(5)
    f_end, xs = _chain(_ou_window_integrals, rng, np.zeros(11), 2.5, 0.0, [0.3, 1.0])
    assert (f_end == 0.0).all() and (np.array(xs) == 0.0).all()


def test_ou_stationary_statistics():
    # f at the times 0, 0.4 and 1: the end values of consecutive windows
    # from a stationary start
    n, times = 100_000, np.array([0.0, 0.4, 1.0])
    rng = np.random.default_rng(999)
    vals = [rng.normal(0.0, P.gamma, n)]
    for dt in np.diff(times):
        vals.append(_ou_window_integrals(rng, vals[-1], P.lam, P.gamma, dt)[0])
    se = P.gamma / np.sqrt(n)
    for v in vals:
        assert abs(v.mean()) < 4 * se
    # lagged autocovariance vs the exponential correlation
    for (i, j) in [(0, 1), (0, 2), (1, 2)]:
        prod = vals[i] * vals[j]
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
    f0 = rng.normal(0.0, gam, n)
    _, (x1, x2) = _chain(_ou_window_integrals, rng, f0, lam, gam, [tau, tau])
    assert _var_within(x1, 2 * f1(P, tau))
    assert _var_within(x2, 2 * f1(P, tau))
    assert _cov_within(x1, x2, 2 * delta_f(P, tau))
    # fixed start c: the joint Gaussian moments of (f(T), X) given f(0)
    c, e = 0.8 * gam, np.exp(-lam_t)
    f_end, x = _ou_window_integrals(rng, np.full(n, c), lam, gam, tau)
    var_x = (2 * gam ** 2 / lam ** 2 * (lam_t + np.expm1(-lam_t))
             - gam ** 2 * (1 - e) ** 2 / lam ** 2)
    assert abs(f_end.mean() - c * e) < 4 * gam * np.sqrt((1 - e * e) / n)
    assert abs(x.mean() - c * (1 - e) / lam) < 4 * np.sqrt(var_x / n)
    assert _var_within(f_end, gam ** 2 * (1 - e * e))
    assert _var_within(x, var_x)
    assert _cov_within(f_end, x, gam ** 2 / lam * (1 - e) ** 2)


@pytest.mark.parametrize("lam_t", [0.01, 1.0, 7.0])
def test_ou_window_kernel_matches_stepped_oracle(lam_t, sample_ou_ensemble):
    # fine trapezoid integrals of the stepped exact-transition chain
    n, tau, steps = 10_000, lam_t / P.lam, 100
    grid = np.linspace(0.0, 2 * tau, 2 * steps + 1)
    vals = sample_ou_ensemble(P, grid, n, 5)
    o1 = np.trapezoid(vals[:, :steps + 1], grid[:steps + 1], axis=1)
    o2 = np.trapezoid(vals[:, steps:], grid[steps:], axis=1)
    rng = np.random.default_rng(6)
    _, (x1, x2) = _chain(_ou_window_integrals, rng, rng.normal(0.0, P.gamma, n),
                         P.lam, P.gamma, [tau, tau])
    for a, b in ((o1, x1), (o2, x2)):
        va, vb = a.var(ddof=1), b.var(ddof=1)
        assert abs(va - vb) < 4 * np.hypot(va, vb) * np.sqrt(2 / (n - 1))
    ca, cb = np.cov(o1, o2)[0, 1], np.cov(x1, x2)[0, 1]
    se = np.hypot((o1 * o2).std(), (x1 * x2).std()) / np.sqrt(n)
    assert abs(ca - cb) < 4 * se


class _ScaleRecorder:
    """Generator wrapper that records the scale of every normal draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.scales = []

    def normal(self, loc, scale, size):
        self.scales.append(scale)
        return self._rng.normal(loc, scale, size)


def test_ou_window_kernel_tiny_window_variances():
    rng = _ScaleRecorder(3)
    f0 = np.linspace(-1.0, 1.0, 7)
    f_end, x = _ou_window_integrals(rng, f0, P.lam, P.gamma, 1e-9 / P.lam)
    assert len(rng.scales) == 2
    assert all(np.isfinite(s) and s >= 0 for s in rng.scales)
    assert np.isfinite(f_end).all() and np.isfinite(x).all()
    # X = T f0 up to the O(sqrt(lam T)) change of f over the window
    assert_allclose(x, f0 * 1e-9 / P.lam, rtol=0, atol=1e-3 * 1e-9 / P.lam)


@pytest.mark.parametrize("kernel", [_ou_window_integrals, _renewal_window_integrals],
                         ids=["ou", "renewal"])
def test_window_kernel_zero_window_is_identity(kernel):
    rng = np.random.default_rng(4)
    f0 = rng.normal(0.0, P.gamma, 50)
    f_end, x = kernel(rng, f0, P.lam, P.gamma, 0.0)
    assert (f_end == f0).all()
    assert (x == 0.0).all()
    # and between two windows
    _, x = _chain(kernel, rng, f0, P.lam, P.gamma, [0.5, 0.0, 0.5])
    assert (x[1] == 0.0).all()


@pytest.mark.parametrize("lam_t", [0.01, 1.0, 7.0])
def test_renewal_window_kernel_moments(lam_t):
    n, tau = 100_000, lam_t / P.lam
    rng = np.random.default_rng(int(100 * lam_t))
    # stationary start: the same second moments as OU noise
    f0 = rng.normal(0.0, P.gamma, n)
    f_end, (x1, x2) = _chain(_renewal_window_integrals, rng, f0, P.lam, P.gamma,
                             [tau, tau])
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
    normal draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.exponential_sizes, self.normal_sizes = [], []

    def exponential(self, scale, size):
        self.exponential_sizes.append(size)
        return self._rng.exponential(scale, size)

    def normal(self, loc, scale, size):
        self.normal_sizes.append(size)
        return self._rng.normal(loc, scale, size)


def test_renewal_window_kernel_draws_nothing_for_finished_trajectories():
    n = 2000
    rng = _DrawRecorder(5)
    f = np.random.default_rng(6).normal(0.0, P.gamma, n)
    for dur in (0.3, 0.9, 0.3):
        rng.exponential_sizes, rng.normal_sizes = [], []
        f, _ = _renewal_window_integrals(rng, f, P.lam, P.gamma, dur)
        waits, values = rng.exponential_sizes, rng.normal_sizes
        # a pass draws one waiting time per trajectory still short of the
        # end, then one value per trajectory whose event fell before the
        # end: those are the ones the next pass draws for
        assert waits[0] == n and all(a >= b > 0 for a, b in zip(waits, waits[1:]))
        assert values == waits[1:] + [0]
        # so each trajectory draws one waiting time per event, plus the one
        # that ends it
        assert sum(waits) == n + sum(values)


def test_renewal_constant_in_no_jump_limit():
    rng = np.random.default_rng(7)
    f0 = rng.normal(0.0, 1.0, 1000)
    f_end, x = _renewal_window_integrals(rng, f0, 1e-9, 1.0, 10.0)
    assert (f_end == f0).all()
    assert (x == f0 * 10.0).all()
