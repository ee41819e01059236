import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahnramsey.analytic import (BiasParams, _detuned_echo_terms,
                                 closed_form_signal, component_weights,
                                 hr_signal_derivative)
from hahnramsey.noise import FilterKind, NoiseParams, f1, filter_exponents
from hahnramsey.spincore import PulseParams, SequenceKind, build_sequence
from biased_signal import hr_signal_biased
from filter_oracle import chi_filter
from spin_oracle import UP, propagate, pulse_unitary, sigma_z

P = NoiseParams(2.5, 2 * np.pi * 0.1)
QUIET = NoiseParams(2.5, 0.0)

angles = st.floats(min_value=1e-3, max_value=np.pi / 2)
dets = st.floats(min_value=-6.0, max_value=6.0)
times = st.floats(min_value=0.0, max_value=8.0)


def matrix_hr(theta, delta, tau, eps=0.0):
    seq = build_sequence(SequenceKind.HAHN_RAMSEY, theta, delta, tau)
    return sigma_z(propagate(seq.elements, delta, eps=eps))


def test_ramsey_signal_examples():
    kind = SequenceKind.RAMSEY
    assert closed_form_signal(kind, np.pi / 2, 1.3, P, 0.0) == pytest.approx(1.0)
    taus = np.linspace(0, 4, 9)
    np.testing.assert_allclose(closed_form_signal(kind, np.pi / 2, 1.3, QUIET, taus),
                               np.cos(1.3 * taus), atol=1e-15)
    assert closed_form_signal(kind, np.pi / 2, 1.3, P, 1.0) == pytest.approx(
        np.cos(1.3) * np.exp(-f1(P, 1.0)), rel=1e-12)


def test_ramsey_matches_matrix_propagation():
    for dtau in (0.0, 0.7, 2.1):
        seq = build_sequence(SequenceKind.RAMSEY, np.pi / 2, dtau, 1.0)
        closed = closed_form_signal(SequenceKind.RAMSEY, np.pi / 2, dtau, QUIET, 1.0)
        assert closed == pytest.approx(sigma_z(propagate(seq.elements, dtau)),
                                       abs=1e-12)


def test_hahn_echo_examples():
    kind = SequenceKind.HAHN_ECHO
    assert closed_form_signal(kind, np.pi / 2, 0.0, P, 0.0) == pytest.approx(1.0)
    assert closed_form_signal(kind, np.pi / 2, 0.0, QUIET, 3.0) == pytest.approx(1.0)
    lam, gam = P.lam, P.gamma
    tau = 1.7
    expected = np.exp(-(gam / lam) ** 2
                      * (2 * lam * tau - 3 + 4 * np.exp(-lam * tau)
                         - np.exp(-2 * lam * tau)))
    assert closed_form_signal(kind, np.pi / 2, 0.0, P, tau) == pytest.approx(
        expected, rel=1e-12)


def test_hahn_ramsey_reduces_to_hahn_echo():
    taus = np.linspace(0, 6, 25)
    hr = closed_form_signal(SequenceKind.HAHN_RAMSEY, np.pi / 2, 0.0, P, taus)
    he = closed_form_signal(SequenceKind.HAHN_ECHO, np.pi / 2, 0.0, P, taus)
    np.testing.assert_allclose(hr, he, atol=1e-12)


def test_hahn_ramsey_examples():
    kind = SequenceKind.HAHN_RAMSEY
    taus = np.linspace(0, 3, 7)
    np.testing.assert_allclose(closed_form_signal(kind, np.pi / 2, 1.9, QUIET, taus),
                               np.cos(2 * 1.9 * taus), atol=1e-12)
    assert closed_form_signal(kind, 1e-9, 1.3, P, 2.0) == pytest.approx(1.0, abs=1e-12)
    assert closed_form_signal(kind, np.pi / 4, 0.9, QUIET, 0.0) == pytest.approx(
        0.0, abs=1e-12)
    assert closed_form_signal(kind, np.pi / 4, 0.9, QUIET, 0.0) == pytest.approx(
        matrix_hr(np.pi / 4, 0.9, 0.0), abs=1e-12)


def test_noiseless_equivalence_thousand_draws():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        th = rng.uniform(1e-3, np.pi / 2)
        d = rng.uniform(-6, 6)
        tau = rng.uniform(0, 5)
        worst = max(worst, abs(closed_form_signal(SequenceKind.HAHN_RAMSEY, th, d,
                                                  QUIET, tau)
                               - matrix_hr(th, d, tau)))
    assert worst < 1e-12


@given(angles, dets, times)
@settings(max_examples=150, deadline=None)
def test_signal_bounded(theta, delta, tau):
    hr = closed_form_signal(SequenceKind.HAHN_RAMSEY, theta, delta, P, tau)
    ramsey = closed_form_signal(SequenceKind.RAMSEY, np.pi / 2, delta, P, tau)
    echo = closed_form_signal(SequenceKind.HAHN_ECHO, np.pi / 2, 0.0, P, tau)
    assert abs(hr) <= 1 + 1e-12
    assert abs(ramsey) <= 1 + 1e-12
    assert 0 < echo <= 1 + 1e-12


def test_component_weights_patterns():
    w = component_weights(np.pi / 2)
    assert w[0] == pytest.approx(0.0, abs=1e-15)
    assert w[1] == pytest.approx(0.0, abs=1e-15)
    assert w[2] == pytest.approx(0.0, abs=1e-15)
    assert w[3] == pytest.approx(0.5)          # sole survivor
    w0 = component_weights(0.0)
    assert w0 == pytest.approx((0.5, 0.0, 0.0, 0.0))


def test_biased_reduces_at_zero_bias():
    rng = np.random.default_rng(5)
    for _ in range(200):
        th = rng.uniform(1e-3, np.pi / 2)
        d = rng.uniform(-5, 5)
        tau = rng.uniform(0, 5)
        assert hr_signal_biased(th, d, BiasParams(0.0), P, tau) == pytest.approx(
            closed_form_signal(SequenceKind.HAHN_RAMSEY, th, d, P, tau), abs=1e-14)


def test_biased_matches_matrix_oracle():
    # bias shifts both free-interval phases by +eps*tau (common mode)
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(500):
        th = rng.uniform(1e-3, np.pi / 2)
        d = rng.uniform(-4, 4)
        e = rng.uniform(-2, 2)
        tau = rng.uniform(0, 4)
        m = matrix_hr(th, d, tau, eps=e)
        c = hr_signal_biased(th, d, BiasParams(e), QUIET, tau)
        worst = max(worst, abs(m - c))
    assert worst < 1e-12


def test_biased_theta_half_pi_is_bias_insensitive():
    # at theta = pi/2 every bias-dependent weight vanishes
    taus = np.linspace(0, 3, 13)
    s0 = hr_signal_biased(np.pi / 2, 1.1, BiasParams(0.0), QUIET, taus)
    s1 = hr_signal_biased(np.pi / 2, 1.1, BiasParams(0.8), QUIET, taus)
    np.testing.assert_allclose(s0, s1, atol=1e-12)
    np.testing.assert_allclose(s0, np.cos(2 * 1.1 * taus), atol=1e-12)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(23)
    h = 1e-6
    for _ in range(200):
        th = rng.uniform(0.05, np.pi / 2)
        d = rng.uniform(-3, 3)
        e = rng.uniform(-0.9, 0.9)
        tau = rng.uniform(0.1, 3)
        fd = (hr_signal_biased(th, d, BiasParams(e + h), P, tau)
              - hr_signal_biased(th, d, BiasParams(e - h), P, tau)) / (2 * h)
        an = hr_signal_derivative(th, d, BiasParams(e), P, tau)
        if abs(an) > 1e-7:
            assert fd == pytest.approx(an, rel=1e-6)
        else:
            assert fd == pytest.approx(an, abs=1e-6)


def test_derivative_vanishes_at_zero_tilt():
    assert hr_signal_derivative(1e-9, 1.0, BiasParams(0.3), P, 2.0) == \
        pytest.approx(0.0, abs=1e-12)


def test_biased_signal_matches_noise_averaged_propagation(sample_ou_ensemble):
    # Monte Carlo consistency for the biased form: average the matrix
    # signal over sampled OU phase integrals at a nonzero bias
    th, d, e, tau, n = 0.2 * np.pi, 1.3, 0.4, 1.0, 20_000
    grid = np.linspace(0.0, 2 * tau, 101)
    vals = sample_ou_ensemble(P, grid, n, 5150)
    half = grid <= tau
    x1 = np.trapezoid(vals[:, half], grid[half], axis=1)
    x2 = np.trapezoid(vals[:, ~half], grid[~half], axis=1)
    p1 = pulse_unitary(PulseParams(th, np.pi / 2, +1))
    p2 = pulse_unitary(PulseParams(th, np.pi, -1))
    psi = np.tile(p1 @ UP, (n, 1))
    for phi, u in (((d + e) * tau + x1, p2), ((-d + e) * tau + x2, p1)):
        psi[:, 0] *= np.exp(-0.5j * phi)
        psi[:, 1] *= np.exp(+0.5j * phi)
        psi = psi @ u.T
    sz = np.abs(psi[:, 0]) ** 2 - np.abs(psi[:, 1]) ** 2
    ref = hr_signal_biased(th, d, BiasParams(e), P, tau)
    assert abs(sz.mean() - ref) < 3 * sz.std(ddof=1) / np.sqrt(n)


def test_long_time_limit_is_constant_term():
    th, d = 0.2 * np.pi, 1.5
    a, b = np.cos(th), np.sin(th)
    const = a ** 4 * (1 - 2 * b ** 2)
    late = closed_form_signal(SequenceKind.HAHN_RAMSEY, th, d, P, 120.0)
    assert late == pytest.approx(const, abs=1e-6)


def test_consistency_with_spectral_exponents():
    # the three decay exponents of the decomposition match the quadrature
    # oracle and filter_exponents
    tau = 1.2
    exponents = filter_exponents(P, tau)
    _, *terms = _detuned_echo_terms(0.2 * np.pi, 0.0, exponents, tau, 0.0)
    weights = component_weights(0.2 * np.pi)[1:]
    for term, weight, kind, exponent in zip(terms, weights, FilterKind, exponents):
        assert term == pytest.approx(weight * np.exp(-chi_filter(kind, P, tau)), rel=1e-4)
        assert term == pytest.approx(weight * np.exp(-exponent), rel=1e-12)


# (theta, delta) at which each standard sequence has a closed form
_CLOSED_FORM_ARGS = {
    SequenceKind.RAMSEY: (np.pi / 2, 1.3),
    SequenceKind.HAHN_ECHO: (np.pi / 2, 0.0),
    SequenceKind.HAHN_RAMSEY: (0.2 * np.pi, 1.3),
}


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_closed_form_dispatch_matches_built_sequence(kind):
    theta, delta = _CLOSED_FORM_ARGS[kind]
    taus = np.linspace(0.0, 4.0, 9)
    expect = [sigma_z(propagate(build_sequence(kind, theta, delta, tau).elements,
                                delta)) for tau in taus]
    np.testing.assert_allclose(
        closed_form_signal(kind, theta, delta, QUIET, taus), expect, atol=1e-12)


def test_closed_form_dispatch_rejects_unknown_cases():
    with pytest.raises(ValueError):
        closed_form_signal(SequenceKind.RAMSEY, 0.5, 0.0, P, 1.0)


def test_bias_grid_in_one_call_equals_scalar_calls():
    us = np.linspace(-np.pi, np.pi, 101)
    tau = 1.3
    grid = hr_signal_derivative(0.3, 0.5, BiasParams(us / tau), P, tau)
    loop = [hr_signal_derivative(0.3, 0.5, BiasParams(u / tau), P, tau)
            for u in us]
    assert grid.tobytes() == np.array(loop).tobytes()
    biased = hr_signal_biased(0.3, 0.5, BiasParams(us / tau), P, tau)
    loop = [hr_signal_biased(0.3, 0.5, BiasParams(u / tau), P, tau) for u in us]
    np.testing.assert_array_equal(biased, loop)
    with pytest.raises(ValueError):
        BiasParams(np.array([0.0, np.nan]))
