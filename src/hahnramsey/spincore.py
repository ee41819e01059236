"""Exact dynamics of a single driven two-level spin.

Basis is {|up>, |down>} with |up> the optically initialized level and
sigma_z = diag(1, -1).  An off-resonant pulse rotates the spin about an
axis tilted from z by theta in the x-z plane,

    R(theta, beta) = Ry(theta) Rz(beta) Ry(-theta),

i.e. a rotation by the pulse area beta about n = (sin theta, 0, cos theta).
Driving on the opposite detuning side mirrors the tilt (theta -> -theta).
Free precession by a total accumulated phase phi is the diagonal unitary
exp(-i sigma_z phi / 2).

Sign conventions for sequences with alternating pulse detunings: each
delay carries the detuning sign of the frame it is evaluated in, so the
phase for delay i is  sign_i * delta * tau_i + epsilon * tau_i + X_i,
where X_i is the integrated noise over the delay and epsilon is a
common-mode bias (a static field shifts both delays the same way).

All operations here are pure functions of their inputs; every value is
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

__all__ = [
    "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "SPIN_UP", "SPIN_DOWN",
    "SpinState", "DensityMatrix", "PulseParams", "Delay", "DrivingParams",
    "SequenceKind", "PulseSequence", "TiltConvention", "TiltAngle",
    "ry", "rz", "rotation_matrix", "free_phase_unitary", "tilt_angle",
    "ramsey_sequence", "hahn_echo_sequence", "hahn_ramsey_sequence",
    "build_sequence", "delay_phases", "propagate", "expectation_sigma_z",
    "analytic_density_matrix_hr", "long_time_density_matrix",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SPIN_UP = np.array([1, 0], dtype=complex)
SPIN_DOWN = np.array([0, 1], dtype=complex)

_ATOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SpinState:
    """Pure state, two complex amplitudes in the {|up>, |down>} basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen(self.amplitudes)
        if amps.shape != (2,):
            raise ValueError("SpinState needs exactly two amplitudes")
        norm = np.sqrt((abs(amps) ** 2).sum())
        if abs(norm - 1.0) > _ATOL:
            raise ValueError(f"state norm {norm!r} differs from 1 beyond 1e-12")
        object.__setattr__(self, "amplitudes", amps)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 Hermitian, unit-trace, positive-semidefinite matrix."""

    entries: np.ndarray

    def __post_init__(self):
        rho = _frozen(self.entries)
        if rho.shape != (2, 2):
            raise ValueError("DensityMatrix must be 2x2")
        if np.abs(rho - rho.conj().T).max() > _ATOL:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(rho) - 1.0) > _ATOL:
            raise ValueError("density matrix trace differs from 1 beyond 1e-12")
        if np.linalg.eigvalsh(rho).min() < -_ATOL:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "entries", rho)


State = Union[SpinState, DensityMatrix]


@dataclass(frozen=True)
class PulseParams:
    """Tilted-axis pulse: tilt theta in (0, pi/2], area beta >= 0.

    detuning_sign = -1 mirrors the tilt axis (drive on the opposite
    detuning side), giving R(-theta, beta).
    """

    theta: float
    beta: float
    detuning_sign: int = +1

    def __post_init__(self):
        if not (0.0 < self.theta <= np.pi / 2):
            raise ValueError(f"theta={self.theta} outside (0, pi/2]")
        if self.beta < 0:
            raise ValueError("pulse area beta must be >= 0")
        if self.detuning_sign not in (+1, -1):
            raise ValueError("detuning_sign must be +1 or -1")


@dataclass(frozen=True)
class Delay:
    """Free-precession interval; detuning_sign sets the sign of the
    deterministic delta*tau contribution to the accumulated phase."""

    duration: float
    detuning_sign: int = +1

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("delay duration must be >= 0")
        if self.detuning_sign not in (+1, -1):
            raise ValueError("detuning_sign must be +1 or -1")


@dataclass(frozen=True)
class DrivingParams:
    """Resonant Rabi frequency and drive detuning, both rad per time unit."""

    rabi: float
    detuning: float

    def __post_init__(self):
        if not self.rabi > 0:
            raise ValueError("rabi frequency must be > 0")

    @property
    def effective_rabi(self) -> float:
        """Nutation frequency sqrt(rabi^2 + detuning^2)."""
        return math.hypot(self.rabi, self.detuning)


class SequenceKind(enum.Enum):
    RAMSEY = "ramsey"
    HAHN_ECHO = "hahn_echo"
    HAHN_RAMSEY = "hahn_ramsey"
    CUSTOM = "custom"


@dataclass(frozen=True)
class PulseSequence:
    kind: SequenceKind
    elements: tuple

    def __post_init__(self):
        for el in self.elements:
            if not isinstance(el, (PulseParams, Delay)):
                raise TypeError(f"sequence element {el!r} is neither a pulse nor a delay")
        object.__setattr__(self, "elements", tuple(self.elements))

    @property
    def delays(self) -> tuple:
        return tuple(el for el in self.elements if isinstance(el, Delay))

    @property
    def pulses(self) -> tuple:
        return tuple(el for el in self.elements if isinstance(el, PulseParams))


class TiltConvention(enum.Enum):
    #: arctan(rabi / detuning), the geometric tilt of the rotation axis.
    GEOMETRIC = "geometric"
    #: arctan(effective_rabi / detuning), with the nutation frequency in
    #: the numerator.  Kept selectable because both conventions circulate.
    NUTATION = "nutation"


@dataclass(frozen=True)
class TiltAngle:
    theta: float
    detuning_sign: int


def ry(alpha: float) -> np.ndarray:
    """exp(-i sigma_y alpha / 2)."""
    c, s = math.cos(alpha / 2), math.sin(alpha / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(alpha: float) -> np.ndarray:
    """exp(-i sigma_z alpha / 2)."""
    return np.array([[np.exp(-0.5j * alpha), 0], [0, np.exp(0.5j * alpha)]])


def rotation_matrix(p: PulseParams) -> np.ndarray:
    """Unitary of a tilted-axis pulse, R(+-theta, beta)."""
    th = p.detuning_sign * p.theta
    return ry(th) @ rz(p.beta) @ ry(-th)


def free_phase_unitary(total_phase: float) -> np.ndarray:
    """exp(-i sigma_z phase / 2) for an already-integrated phase."""
    if not np.isfinite(total_phase):
        raise ValueError("free-evolution phase must be finite")
    return rz(total_phase)


def tilt_angle(d: DrivingParams, convention: TiltConvention = TiltConvention.GEOMETRIC) -> TiltAngle:
    """Map (rabi, detuning) to a tilt angle in (0, pi/2] plus a detuning sign.

    Resonant driving gives theta = pi/2.  Negative detunings are folded
    into the range by the odd symmetry of arctan and reported through
    detuning_sign instead.
    """
    det = abs(d.detuning)
    sign = +1 if d.detuning >= 0 else -1
    if det == 0.0:
        return TiltAngle(np.pi / 2, +1)
    if convention is TiltConvention.GEOMETRIC:
        theta = math.atan2(d.rabi, det)
    elif convention is TiltConvention.NUTATION:
        theta = math.atan2(d.effective_rabi, det)
    else:
        raise ValueError(f"unknown tilt convention {convention!r}")
    return TiltAngle(theta, sign)


def ramsey_sequence(theta: float, tau: float) -> PulseSequence:
    """pi/2 -- free precession -- readout pulse.

    The readout pulse is a 3pi/2 rotation about the same axis, equal to
    the inverse pi/2 rotation up to a global phase.  This gives the
    cosine fringe convention s(0) = +1; reading out with an identical
    pi/2 pulse would flip the sign of every fringe.
    """
    return PulseSequence(SequenceKind.RAMSEY, (
        PulseParams(theta, np.pi / 2, +1),
        Delay(tau, +1),
        PulseParams(theta, 3 * np.pi / 2, +1),
    ))


def hahn_ramsey_sequence(theta: float, tau: float) -> PulseSequence:
    """pi/2 at +delta -- tau -- pi at -delta -- tau -- pi/2 at +delta."""
    return PulseSequence(SequenceKind.HAHN_RAMSEY, (
        PulseParams(theta, np.pi / 2, +1),
        Delay(tau, +1),
        PulseParams(theta, np.pi, -1),
        Delay(tau, -1),
        PulseParams(theta, np.pi / 2, +1),
    ))


def hahn_echo_sequence(tau: float) -> PulseSequence:
    """Resonant pi/2 -- tau -- pi -- tau -- pi/2 (theta = pi/2, delta = 0)."""
    return PulseSequence(SequenceKind.HAHN_ECHO, (
        PulseParams(np.pi / 2, np.pi / 2, +1),
        Delay(tau, +1),
        PulseParams(np.pi / 2, np.pi, -1),
        Delay(tau, -1),
        PulseParams(np.pi / 2, np.pi / 2, +1),
    ))


def build_sequence(kind: SequenceKind, theta: float, delta: float,
                   tau: float) -> PulseSequence:
    """The standard sequence of a kind at tilt theta and delay tau.

    delta is only checked here: the hahn echo is resonant, so it needs
    theta = pi/2 and delta = 0.  CUSTOM has no standard sequence.
    """
    if kind is SequenceKind.RAMSEY:
        return ramsey_sequence(theta, tau)
    if kind is SequenceKind.HAHN_ECHO:
        if not math.isclose(theta, math.pi / 2):
            raise ValueError("hahn_echo uses resonant pulses, theta = pi/2")
        if delta != 0.0:
            raise ValueError("hahn_echo is resonant, delta must be 0")
        return hahn_echo_sequence(tau)
    if kind is SequenceKind.HAHN_RAMSEY:
        return hahn_ramsey_sequence(theta, tau)
    raise ValueError(f"no standard sequence for {kind!r}")


def delay_phases(seq: PulseSequence, delta: float,
                 noise_integrals: Sequence[float] | None = None,
                 epsilon: float = 0.0) -> list:
    """Accumulated phase per delay: sign*delta*tau + epsilon*tau + integral."""
    delays = seq.delays
    if noise_integrals is None:
        noise_integrals = [0.0] * len(delays)
    if len(noise_integrals) != len(delays):
        raise ValueError(
            f"{len(noise_integrals)} noise integrals for {len(delays)} delays")
    return [d.detuning_sign * delta * d.duration + epsilon * d.duration + x
            for d, x in zip(delays, noise_integrals)]


def _apply(u: np.ndarray, state: State) -> State:
    if isinstance(state, SpinState):
        return SpinState(u @ state.amplitudes)
    return DensityMatrix(u @ state.entries @ u.conj().T)


def propagate(state: State, seq: PulseSequence, phase_per_delay: Sequence[float]) -> State:
    """Apply the sequence left to right; phases must already contain all
    deterministic and noise contributions (see delay_phases)."""
    delays = seq.delays
    if len(phase_per_delay) != len(delays):
        raise ValueError(
            f"{len(phase_per_delay)} phases supplied for {len(delays)} delays")
    phases = iter(phase_per_delay)
    out = state
    for el in seq.elements:
        if isinstance(el, PulseParams):
            out = _apply(rotation_matrix(el), out)
        else:
            out = _apply(free_phase_unitary(next(phases)), out)
    return out


def expectation_sigma_z(state: State) -> float:
    """<sigma_z> in [-1, 1]; |up> gives +1."""
    if isinstance(state, SpinState):
        a = state.amplitudes
        return float(abs(a[0]) ** 2 - abs(a[1]) ** 2)
    return float(np.trace(state.entries @ SIGMA_Z).real)


def analytic_density_matrix_hr(theta: float, f: float, g: float) -> DensityMatrix:
    """State after pi/2 -- phase 2f -- mirrored pi -- phase 2g, closed form.

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
    return DensityMatrix(0.5 * np.array([[r00, r01], [r10, r11]]))


def long_time_density_matrix(theta: float) -> DensityMatrix:
    """Fully dephased limit: diagonal mixture left once every decaying
    term has averaged away."""
    a, b = math.cos(theta), math.sin(theta)
    return DensityMatrix(0.5 * np.diag([
        a ** 2 + a ** 4 + b ** 4,
        b ** 2 + 2 * a ** 2 * b ** 2,
    ]).astype(complex))
