import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hahnramsey.spincore import (Delay, PulseParams, SequenceKind,
                                 build_sequence, is_resonant, tilt_angle)
from spin_oracle import (UP, analytic_density_matrix_hr, free_phase,
                         long_time_density_matrix, propagate, pulse_unitary,
                         sigma_z)

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)

angles = st.floats(min_value=1e-6, max_value=np.pi / 2)
areas = st.floats(min_value=0.0, max_value=4 * np.pi)
phases = st.floats(min_value=-20.0, max_value=20.0)


def ry(alpha):
    """exp(-i sigma_y alpha / 2)."""
    c, s = math.cos(alpha / 2), math.sin(alpha / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(alpha):
    """exp(-i sigma_z alpha / 2)."""
    return np.array([[np.exp(-0.5j * alpha), 0], [0, np.exp(0.5j * alpha)]])


def assert_density_matrix(rho):
    """2x2, Hermitian, unit trace and positive semidefinite within 1e-12."""
    assert rho.shape == (2, 2)
    assert np.abs(rho - rho.conj().T).max() <= 1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_pi_rotation_flips_spin():
    psi = pulse_unitary(PulseParams(np.pi / 2, np.pi)) @ UP
    assert abs(abs(psi[1]) - 1.0) < 1e-12   # |down> up to a global phase
    assert abs(psi[0]) < 1e-12


def test_zero_area_is_identity():
    assert_allclose(pulse_unitary(PulseParams(0.37, 0.0)), np.eye(2), atol=1e-14)


def test_rotation_matches_three_factor_product():
    th, beta = 0.2 * np.pi, np.pi / 2
    expected = ry(th) @ rz(beta) @ ry(-th)
    u = pulse_unitary(PulseParams(th, beta))
    assert_allclose(u, expected, atol=1e-15)
    assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-12
    assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_detuning_sign_mirrors_tilt():
    th, beta = 0.31, 1.7
    u = pulse_unitary(PulseParams(th, beta, -1))
    assert_allclose(u, ry(-th) @ rz(beta) @ ry(th), atol=1e-15)


@given(angles, areas)
@settings(max_examples=150)
def test_pulse_unitarity(theta, beta):
    u = pulse_unitary(PulseParams(theta, beta))
    assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12


@given(angles, areas, areas)
@settings(max_examples=150)
def test_same_axis_composition(theta, b1, b2):
    u1 = pulse_unitary(PulseParams(theta, b1))
    u2 = pulse_unitary(PulseParams(theta, b2))
    u12 = pulse_unitary(PulseParams(theta, b1 + b2))
    assert np.abs(u1 @ u2 - u12).max() < 1e-10


def test_free_phase_identity_and_global_sign():
    assert_allclose(free_phase(0.0), np.eye(2), atol=1e-15)
    u = free_phase(2 * np.pi)
    assert_allclose(u, -np.eye(2), atol=1e-12)     # global phase only
    assert abs(sigma_z(u @ PLUS) - sigma_z(PLUS)) < 1e-12


def test_pi_phase_flips_x():
    psi = free_phase(np.pi) @ PLUS
    sx = 2 * (psi[0].conjugate() * psi[1]).real
    assert abs(sx + 1.0) < 1e-12


def test_tilt_angle_examples():
    # the geometric tilt arctan(rabi / |detuning|), exactly pi/2 on resonance
    assert tilt_angle(1.0, 0.0) == np.pi / 2
    assert tilt_angle(1.0, -0.0) == np.pi / 2
    assert tilt_angle(1.0, 1e9) < 1e-8
    assert abs(tilt_angle(1.0, 1.0) - np.pi / 4) < 1e-12
    assert abs(tilt_angle(1.0, -1.0) - np.pi / 4) < 1e-12
    assert abs(tilt_angle(2.0, 1.5) - np.arctan(2.0 / 1.5)) < 1e-15


def test_tilt_angle_rejects_nonpositive_rabi():
    for rabi in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="rabi frequency must be > 0"):
            tilt_angle(rabi, 1.0)


@pytest.mark.parametrize("dtau", [0.0, 0.4, 1.3, 2.9])
def test_hahn_ramsey_ideal_fringe(dtau):
    seq = build_sequence(SequenceKind.HAHN_RAMSEY, np.pi / 2, dtau, 1.0)
    assert abs(sigma_z(propagate(seq, dtau)) - np.cos(2 * dtau)) < 1e-12


@pytest.mark.parametrize("dtau", [0.0, 0.4, 1.3, 2.9])
def test_ramsey_ideal_fringe(dtau):
    seq = build_sequence(SequenceKind.RAMSEY, np.pi / 2, dtau, 1.0)
    assert abs(sigma_z(propagate(seq, dtau)) - np.cos(dtau)) < 1e-12


def test_sequence_expansions():
    hr = build_sequence(SequenceKind.HAHN_RAMSEY, 0.3, 1.0, 2.0)
    pulses = [el for el in hr if isinstance(el, PulseParams)]
    delays = [el for el in hr if isinstance(el, Delay)]
    assert [type(el) for el in hr] == [PulseParams, Delay] * 2 + [PulseParams]
    assert [d.detuning_sign for d in delays] == [1, -1]
    assert [p.detuning_sign for p in pulses] == [1, -1, 1]
    assert [p.beta for p in pulses] == [np.pi / 2, np.pi, np.pi / 2]
    assert [d.duration for d in delays] == [2.0, 2.0]
    ram = build_sequence(SequenceKind.RAMSEY, 0.3, 1.0, 2.0)
    assert ram == (PulseParams(0.3, np.pi / 2), Delay(2.0),
                   PulseParams(0.3, 3 * np.pi / 2))


def test_sigma_z_examples():
    assert sigma_z(UP) == pytest.approx(1.0)
    assert sigma_z(np.array([0, 1], dtype=complex)) == pytest.approx(-1.0)
    assert sigma_z(PLUS) == pytest.approx(0.0, abs=1e-15)


@given(phases, angles)
@settings(max_examples=100)
def test_global_phase_invariance(phi, theta):
    psi = pulse_unitary(PulseParams(theta, 1.1)) @ UP
    assert abs(sigma_z(np.exp(1j * phi) * psi) - sigma_z(psi)) < 1e-12


def test_propagated_sigma_z_bounded():
    rng = np.random.default_rng(3)
    for _ in range(200):
        seq = build_sequence(SequenceKind.HAHN_RAMSEY,
                             rng.uniform(0.05, np.pi / 2), 0.0, 1.0)
        out = propagate(seq, rng.uniform(-5, 5), rng.normal(0, 2, 2))
        assert -1 - 1e-12 <= sigma_z(out) <= 1 + 1e-12
        assert abs(np.linalg.norm(out) - 1) < 1e-12


def test_analytic_rho_simple_cases():
    rho = analytic_density_matrix_hr(np.pi / 2, 0.0, 0.0)
    assert_density_matrix(rho)
    assert_allclose(rho, np.array([[0.5, -0.5j], [0.5j, 0.5]]), atol=1e-12)
    # pure state check
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12
    rho0 = analytic_density_matrix_hr(1e-9, 1.3, -0.4)
    assert_density_matrix(rho0)
    assert_allclose(rho0, np.diag([1.0, 0.0]).astype(complex), atol=1e-8)


def test_analytic_rho_matches_propagation():
    # sequence without the readout pulse: pi/2, phase 2f, mirrored pi, phase 2g
    rng = np.random.default_rng(42)
    for _ in range(1000):
        th = rng.uniform(1e-3, np.pi / 2)
        f, g = rng.uniform(-6, 6, 2)
        seq = build_sequence(SequenceKind.HAHN_RAMSEY, th, 0.0, 1.0)
        psi = propagate(seq[:-1], 0.0, [2 * f, 2 * g])
        closed = analytic_density_matrix_hr(th, f, g)
        assert_density_matrix(closed)
        assert np.abs(np.outer(psi, psi.conj()) - closed).max() < 1e-10


def test_long_time_density_matrix():
    assert_allclose(long_time_density_matrix(np.pi / 2), 0.5 * np.eye(2),
                    atol=1e-15)
    assert_allclose(long_time_density_matrix(1e-12),
                    np.diag([1.0, 0.0]).astype(complex), atol=1e-10)
    rho = long_time_density_matrix(0.2 * np.pi)
    assert_density_matrix(rho)
    assert abs(np.trace(rho) - 1) < 1e-14
    assert rho[0, 1] == 0


def test_pulse_params_validation():
    with pytest.raises(ValueError):
        PulseParams(0.0, 1.0)
    with pytest.raises(ValueError):
        PulseParams(0.3, -1.0)
    with pytest.raises(ValueError):
        PulseParams(0.3, 1.0, detuning_sign=0)


def test_delay_validation():
    assert Delay(0.0).duration == 0.0       # a zero-length delay is allowed
    with pytest.raises(ValueError):
        Delay(-1e-300)
    with pytest.raises(ValueError):
        Delay(1.0, detuning_sign=0)


def test_build_sequence_dispatch():
    hr = build_sequence(SequenceKind.HAHN_RAMSEY, np.pi / 2, 0.0, 2.0)
    # the echo is the resonant hahn_ramsey sequence, its tilt exactly pi/2
    for theta in (np.pi / 2, np.pi / 2 * (1 - 1e-12)):
        he = build_sequence(SequenceKind.HAHN_ECHO, theta, 0.0, 2.0)
        assert he == hr
    with pytest.raises(ValueError):     # the hahn echo is resonant
        build_sequence(SequenceKind.HAHN_ECHO, 0.4, 0.0, 2.0)
    # resonance is pi/2 to isclose's 1e-9 relative, in one predicate
    for theta in (np.pi / 2, math.nextafter(np.pi / 2, 0.0), np.pi / 2 * (1 - 1e-10)):
        assert is_resonant(theta)
    for theta in (np.pi / 2 * (1 - 1e-8), 0.4):
        assert not is_resonant(theta)
        with pytest.raises(ValueError):
            build_sequence(SequenceKind.HAHN_ECHO, theta, 0.0, 2.0)
    with pytest.raises(ValueError):
        build_sequence(SequenceKind.HAHN_ECHO, np.pi / 2, 1.0, 2.0)
