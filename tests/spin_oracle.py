"""Matrix oracle: a pure state through 2x2 complex matrices, independent
of the engine's real Bloch-vector rotations.  A pulse is cos(beta/2) I -
i sin(beta/2) (sin th sigma_x + cos th sigma_z) with th = detuning_sign *
theta; a delay of accumulated phase phi is diag(e^(-i phi/2), e^(i phi/2)).
Beside it, the paper's closed-form density matrices of the detuned echo
before readout, which the tests check against it and against the Monte
Carlo average.
"""

import math

import numpy as np

from hahnramsey.spincore import PulseParams

SIGMA_X, SIGMA_Y, SIGMA_Z = (np.array(m, dtype=complex) for m in (
    [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]))
UP = np.array([1, 0], dtype=complex)


def pulse_unitary(p: PulseParams) -> np.ndarray:
    th = p.detuning_sign * p.theta
    return (np.cos(p.beta / 2) * np.eye(2) - 1j * np.sin(p.beta / 2)
            * (np.sin(th) * SIGMA_X + np.cos(th) * SIGMA_Z))


def free_phase(phi: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])


def propagate(elements, delta, xs=(0.0, 0.0), eps=0.0) -> np.ndarray:
    """|up> through pulses and delays; delay i accumulates the phase
    sign_i delta tau_i + eps tau_i + xs[i]."""
    psi, xs = UP, iter(xs)
    for el in elements:
        if isinstance(el, PulseParams):
            psi = pulse_unitary(el) @ psi
        else:
            phi = el.detuning_sign * delta * el.duration + eps * el.duration
            psi = free_phase(phi + next(xs)) @ psi
    return psi


def sigma_z(psi: np.ndarray) -> float:
    return float(abs(psi[0]) ** 2 - abs(psi[1]) ** 2)


def analytic_density_matrix_hr(theta: float, f: float, g: float) -> np.ndarray:
    """State after pi/2 -- phase 2f -- mirrored pi -- phase 2g, closed form,
    as a 2x2 complex density matrix.

    f and g are the half-phases of the two free-precession intervals,
    f = (delta*tau + X1)/2 and g = (-delta*tau + X2)/2 for the detuned
    echo sequence.  Equals matrix propagation of |up> entrywise.
    """
    a, b = math.cos(theta), math.sin(theta)
    cs = a * math.cos(2 * f) + math.sin(2 * f)
    r00 = a ** 2 + a ** 4 + b ** 4 - 2 * a * b ** 2 * cs
    r11 = b ** 2 + 2 * a ** 2 * b ** 2 + 2 * a * b ** 2 * cs
    r01 = (-a ** 2 * b * (1j + a) * np.exp(-2j * (f + g))
           - 2 * a ** 3 * b * np.exp(-2j * g)
           + b ** 3 * (a - 1j) * np.exp(2j * (f - g)))
    r10 = (-a ** 2 * b * (-1j + a) * np.exp(2j * (f + g))
           - 2 * a ** 3 * b * np.exp(2j * g)
           + b ** 3 * (a + 1j) * np.exp(-2j * (f - g)))
    return 0.5 * np.array([[r00, r01], [r10, r11]])


def long_time_density_matrix(theta: float) -> np.ndarray:
    """Fully dephased limit, as a 2x2 complex density matrix: the diagonal
    mixture left once every decaying term has averaged away."""
    a, b = math.cos(theta), math.sin(theta)
    return 0.5 * np.diag([
        a ** 2 + a ** 4 + b ** 4,
        b ** 2 + 2 * a ** 2 * b ** 2,
    ]).astype(complex)
