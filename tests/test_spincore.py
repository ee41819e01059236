import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hahnramsey.spincore import (DensityMatrix, DrivingParams, PulseParams,
                                 SequenceKind, SpinState, TiltConvention,
                                 analytic_density_matrix_hr, build_sequence,
                                 delay_phases, expectation_sigma_z,
                                 free_phase_unitary,
                                 hahn_echo_sequence, hahn_ramsey_sequence,
                                 long_time_density_matrix, propagate,
                                 ramsey_sequence, rotation_matrix, ry, rz,
                                 tilt_angle, SPIN_UP, PulseSequence)

UP = SpinState(np.array([1, 0], dtype=complex))
PLUS = SpinState(np.array([1, 1], dtype=complex) / np.sqrt(2))

angles = st.floats(min_value=1e-6, max_value=np.pi / 2)
areas = st.floats(min_value=0.0, max_value=4 * np.pi)
phases = st.floats(min_value=-20.0, max_value=20.0)


def test_pi_rotation_flips_spin():
    u = rotation_matrix(PulseParams(np.pi / 2, np.pi))
    psi = u @ UP.amplitudes
    assert abs(abs(psi[1]) - 1.0) < 1e-12   # |down> up to a global phase
    assert abs(psi[0]) < 1e-12


def test_zero_area_is_identity():
    u = rotation_matrix(PulseParams(0.37, 0.0))
    assert_allclose(u, np.eye(2), atol=1e-14)


def test_rotation_matches_three_factor_product():
    th, beta = 0.2 * np.pi, np.pi / 2
    expected = ry(th) @ rz(beta) @ ry(-th)
    u = rotation_matrix(PulseParams(th, beta))
    assert_allclose(u, expected, atol=1e-15)
    assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-12
    assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_detuning_sign_mirrors_tilt():
    th, beta = 0.31, 1.7
    u = rotation_matrix(PulseParams(th, beta, -1))
    assert_allclose(u, ry(-th) @ rz(beta) @ ry(th), atol=1e-15)


@given(angles, areas)
@settings(max_examples=150)
def test_pulse_unitarity(theta, beta):
    u = rotation_matrix(PulseParams(theta, beta))
    assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12


@given(angles, areas, areas)
@settings(max_examples=150)
def test_same_axis_composition(theta, b1, b2):
    u1 = rotation_matrix(PulseParams(theta, b1))
    u2 = rotation_matrix(PulseParams(theta, b2))
    u12 = rotation_matrix(PulseParams(theta, b1 + b2))
    assert np.abs(u1 @ u2 - u12).max() < 1e-10


def test_free_phase_identity_and_global_sign():
    assert_allclose(free_phase_unitary(0.0), np.eye(2), atol=1e-15)
    u = free_phase_unitary(2 * np.pi)
    assert_allclose(u, -np.eye(2), atol=1e-12)     # global phase only
    st_after = SpinState(u @ PLUS.amplitudes)
    assert abs(expectation_sigma_z(st_after) - expectation_sigma_z(PLUS)) < 1e-12


def test_pi_phase_flips_x():
    psi = free_phase_unitary(np.pi) @ PLUS.amplitudes
    sx = 2 * (psi[0].conjugate() * psi[1]).real
    assert abs(sx + 1.0) < 1e-12


def test_free_phase_rejects_nonfinite():
    with pytest.raises(ValueError):
        free_phase_unitary(np.inf)


def test_tilt_angle_examples():
    d = DrivingParams(1.0, 0.0)
    assert abs(tilt_angle(d, TiltConvention.GEOMETRIC).theta - np.pi / 2) < 1e-12
    assert abs(tilt_angle(d, TiltConvention.NUTATION).theta - np.pi / 2) < 1e-12
    far = DrivingParams(1.0, 1e9)
    assert tilt_angle(far, TiltConvention.GEOMETRIC).theta < 1e-8
    eq = DrivingParams(1.0, 1.0)
    assert abs(tilt_angle(eq, TiltConvention.GEOMETRIC).theta - np.pi / 4) < 1e-12
    assert abs(tilt_angle(eq, TiltConvention.NUTATION).theta
               - np.arctan(np.sqrt(2))) < 1e-12
    neg = tilt_angle(DrivingParams(1.0, -1.0))
    assert neg.detuning_sign == -1 and abs(neg.theta - np.pi / 4) < 1e-12


def test_tilt_angle_rejects_nonpositive_rabi():
    with pytest.raises(ValueError):
        DrivingParams(0.0, 1.0)


def test_propagate_empty_sequence():
    seq = PulseSequence(SequenceKind.CUSTOM, ())
    out = propagate(PLUS, seq, [])
    assert_allclose(out.amplitudes, PLUS.amplitudes)


def test_propagate_phase_count_mismatch():
    seq = ramsey_sequence(np.pi / 2, 1.0)
    with pytest.raises(ValueError):
        propagate(UP, seq, [0.1, 0.2])


@pytest.mark.parametrize("dtau", [0.0, 0.4, 1.3, 2.9])
def test_hahn_ramsey_ideal_fringe(dtau):
    seq = hahn_ramsey_sequence(np.pi / 2, 1.0)
    out = propagate(UP, seq, delay_phases(seq, dtau))
    assert abs(expectation_sigma_z(out) - np.cos(2 * dtau)) < 1e-12


@pytest.mark.parametrize("dtau", [0.0, 0.4, 1.3, 2.9])
def test_ramsey_ideal_fringe(dtau):
    seq = ramsey_sequence(np.pi / 2, 1.0)
    out = propagate(UP, seq, delay_phases(seq, dtau))
    assert abs(expectation_sigma_z(out) - np.cos(dtau)) < 1e-12


def test_sequence_expansions():
    hr = hahn_ramsey_sequence(0.3, 2.0)
    assert [d.detuning_sign for d in hr.delays] == [1, -1]
    assert [p.detuning_sign for p in hr.pulses] == [1, -1, 1]
    assert [p.beta for p in hr.pulses] == [np.pi / 2, np.pi, np.pi / 2]
    he = hahn_echo_sequence(1.5)
    assert all(p.theta == np.pi / 2 for p in he.pulses)


def test_density_matrix_propagation_preserves_invariants():
    rho = UP.density()
    seq = hahn_ramsey_sequence(0.2 * np.pi, 1.0)
    out = propagate(rho, seq, delay_phases(seq, 0.7))
    ent = out.entries
    assert abs(np.trace(ent) - 1) < 1e-12
    assert np.abs(ent - ent.conj().T).max() < 1e-12
    pure = propagate(UP, seq, delay_phases(seq, 0.7))
    assert abs(expectation_sigma_z(out) - expectation_sigma_z(pure)) < 1e-12


def test_expectation_examples():
    assert expectation_sigma_z(UP) == pytest.approx(1.0)
    down = SpinState(np.array([0, 1], dtype=complex))
    assert expectation_sigma_z(down) == pytest.approx(-1.0)
    assert expectation_sigma_z(PLUS) == pytest.approx(0.0, abs=1e-15)
    mixed = DensityMatrix(0.5 * np.eye(2, dtype=complex))
    assert expectation_sigma_z(mixed) == pytest.approx(0.0, abs=1e-15)


@given(phases, angles)
@settings(max_examples=100)
def test_global_phase_invariance(phi, theta):
    psi = rotation_matrix(PulseParams(theta, 1.1)) @ UP.amplitudes
    shifted = SpinState(np.exp(1j * phi) * psi)
    assert abs(expectation_sigma_z(shifted)
               - expectation_sigma_z(SpinState(psi))) < 1e-12


def test_propagated_sigma_z_bounded():
    rng = np.random.default_rng(3)
    for _ in range(200):
        seq = hahn_ramsey_sequence(rng.uniform(0.05, np.pi / 2), 1.0)
        out = propagate(UP, seq, delay_phases(seq, rng.uniform(-5, 5),
                                              rng.normal(0, 2, 2)))
        assert -1 - 1e-12 <= expectation_sigma_z(out) <= 1 + 1e-12
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12


def test_analytic_rho_simple_cases():
    rho = analytic_density_matrix_hr(np.pi / 2, 0.0, 0.0)
    assert_allclose(rho.entries,
                    np.array([[0.5, -0.5j], [0.5j, 0.5]]), atol=1e-12)
    # pure state check
    assert abs(np.trace(rho.entries @ rho.entries).real - 1.0) < 1e-12
    rho0 = analytic_density_matrix_hr(1e-9, 1.3, -0.4)
    assert_allclose(rho0.entries, np.diag([1.0, 0.0]).astype(complex), atol=1e-8)


def test_analytic_rho_matches_propagation():
    # sequence without the readout pulse: pi/2, phase 2f, mirrored pi, phase 2g
    rng = np.random.default_rng(42)
    for _ in range(1000):
        th = rng.uniform(1e-3, np.pi / 2)
        f, g = rng.uniform(-6, 6, 2)
        seq = PulseSequence(SequenceKind.CUSTOM, tuple(
            hahn_ramsey_sequence(th, 1.0).elements[:-1]))
        out = propagate(UP.density(), seq, [2 * f, 2 * g])
        closed = analytic_density_matrix_hr(th, f, g)
        assert np.abs(out.entries - closed.entries).max() < 1e-10


def test_long_time_density_matrix():
    assert_allclose(long_time_density_matrix(np.pi / 2).entries,
                    0.5 * np.eye(2), atol=1e-15)
    assert_allclose(long_time_density_matrix(1e-12).entries,
                    np.diag([1.0, 0.0]).astype(complex), atol=1e-10)
    rho = long_time_density_matrix(0.2 * np.pi)
    assert abs(np.trace(rho.entries) - 1) < 1e-14
    assert rho.entries[0, 1] == 0


def test_state_validation():
    with pytest.raises(ValueError):
        SpinState(np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.6, 0.0], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        PulseParams(0.0, 1.0)
    with pytest.raises(ValueError):
        PulseParams(0.3, -1.0)


def test_build_sequence_dispatch():
    assert build_sequence(SequenceKind.RAMSEY, 0.4, 1.0, 2.0) == \
        ramsey_sequence(0.4, 2.0)
    assert build_sequence(SequenceKind.HAHN_RAMSEY, 0.4, 1.0, 2.0) == \
        hahn_ramsey_sequence(0.4, 2.0)
    assert build_sequence(SequenceKind.HAHN_ECHO, np.pi / 2, 0.0, 2.0) == \
        hahn_echo_sequence(2.0)
    with pytest.raises(ValueError):     # the hahn echo is resonant
        build_sequence(SequenceKind.HAHN_ECHO, 0.4, 0.0, 2.0)
    with pytest.raises(ValueError):
        build_sequence(SequenceKind.HAHN_ECHO, np.pi / 2, 1.0, 2.0)
    with pytest.raises(ValueError):
        build_sequence(SequenceKind.CUSTOM, 0.4, 1.0, 2.0)
