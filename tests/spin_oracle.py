"""Matrix oracle: a pure state through 2x2 complex matrices, independent
of the engine's real Bloch-vector rotations.  A pulse is cos(beta/2) I -
i sin(beta/2) (sin th sigma_x + cos th sigma_z) with th = detuning_sign *
theta; a delay of accumulated phase phi is diag(e^(-i phi/2), e^(i phi/2)).
"""

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
