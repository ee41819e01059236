"""Pulses, pulse sequences and drive tilt of a single two-level spin.

Basis is {|up>, |down>} with |up> the optically initialized level and
sigma_z = diag(1, -1).  An off-resonant pulse of area beta rotates the
spin about an axis tilted from z by theta in the x-z plane,
n = (sin theta, 0, cos theta).  Driving on the opposite detuning side
mirrors the tilt (theta -> -theta).

Sign conventions for sequences with alternating pulse detunings: each
delay carries the detuning sign of the frame it is evaluated in, so the
phase for delay i is  sign_i * delta * tau_i + epsilon * tau_i + X_i,
where X_i is the integrated noise over the delay and epsilon is a
common-mode bias (a static field shifts both delays the same way).

A sequence is a plain tuple of PulseParams and Delay elements in time
order (build_sequence), and the tilt of a drive is a function of its Rabi
frequency and detuning (tilt_angle).  Every value here is immutable
after construction and safe to share between threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PulseParams", "Delay", "SequenceKind", "tilt_angle", "is_resonant",
    "build_sequence",
]


@dataclass(frozen=True)
class PulseParams:
    """Tilted-axis pulse: tilt theta in (0, pi/2], area beta >= 0.

    detuning_sign = -1 mirrors the tilt axis (drive on the opposite
    detuning side): the axis becomes (-sin theta, 0, cos theta).
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


class SequenceKind(enum.Enum):
    RAMSEY = "ramsey"
    HAHN_ECHO = "hahn_echo"
    HAHN_RAMSEY = "hahn_ramsey"


def tilt_angle(rabi: float, detuning: float) -> float:
    """The tilt theta = arctan(rabi / |detuning|) in (0, pi/2] of the
    rotation axis of a drive of Rabi frequency rabi > 0 and detuning
    detuning, both rad per time unit; raises ValueError unless rabi > 0.

    Resonant driving gives theta = pi/2.  A negative detuning gives the
    tilt of its magnitude: the side it drives on is a pulse's
    detuning_sign, not part of theta.
    """
    if not rabi > 0:
        raise ValueError("rabi frequency must be > 0")
    return math.atan2(rabi, abs(detuning))


def is_resonant(theta: float) -> bool:
    """Whether a tilt counts as resonant driving, theta = pi/2 to
    math.isclose's 1e-9 relative: the one rule for the hahn echo and the
    ramsey closed form, which hold at pi/2 only."""
    return math.isclose(theta, math.pi / 2)


def build_sequence(kind: SequenceKind, theta: float, delta: float,
                   tau: float) -> tuple:
    """The standard sequence of a kind at tilt theta and delay tau, as a
    tuple of PulseParams and Delay elements in time order.

    ramsey: pi/2 -- tau -- readout pulse.  The readout pulse is a 3pi/2
    rotation about the same axis, equal to the inverse pi/2 rotation up to
    a global phase.  This gives the cosine fringe convention s(0) = +1;
    reading out with an identical pi/2 pulse would flip the sign of every
    fringe.

    hahn_ramsey: pi/2 at +delta -- tau -- pi at -delta -- tau -- pi/2 at
    +delta.  hahn_echo is the same sequence on resonance, so it needs
    theta = pi/2 and delta = 0; delta is only checked here.
    """
    if kind is SequenceKind.RAMSEY:
        return (PulseParams(theta, np.pi / 2, +1),
                Delay(tau, +1),
                PulseParams(theta, 3 * np.pi / 2, +1))
    if kind is SequenceKind.HAHN_ECHO:
        if not is_resonant(theta):
            raise ValueError("hahn_echo uses resonant pulses, theta = pi/2")
        if delta != 0.0:
            raise ValueError("hahn_echo is resonant, delta must be 0")
        theta = np.pi / 2
    return (PulseParams(theta, np.pi / 2, +1),
            Delay(tau, +1),
            PulseParams(theta, np.pi, -1),
            Delay(tau, -1),
            PulseParams(theta, np.pi / 2, +1))
