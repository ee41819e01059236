"""Closed-form expected signals under exponentially correlated Gaussian
dephasing.

The detuned-echo (Hahn-Ramsey) signal decomposes into a constant plus
three decaying components,

    s(2 tau) = 2 [ a^4/2 (1 - 2 b^2)
                 + a^2 b^4 / 2        exp(-2 (F1 + dF))
                 - 2 a^4 b^2          cos(delta tau)   exp(-F1)
                 + b^4/2 (a^2 + 1)    cos(2 delta tau) exp(-2 (F1 - dF)) ]

with a = cos theta, b = sin theta, and F1, dF the dephasing integrals of
the noise module.  The bracketed sum is the spin-1/2 (S_z) expectation;
the factor 2 converts uniformly to the canonical sigma_z signal in
[-1, 1], which is what direct matrix propagation yields.

A static bias field shifts the accumulated phase of both free intervals
by +epsilon*tau (common mode); the biased signal and its epsilon
derivative drive the DC-sensitivity analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import NoiseParams, delta_f, f1
from .spincore import SequenceKind

__all__ = [
    "BiasParams", "SignalComponents", "closed_form_signal",
    "signal_from_exponents", "ramsey_signal", "hahn_echo_signal",
    "hahn_ramsey_signal", "signal_components", "hr_signal_biased",
    "hr_signal_derivative", "component_weights",
]


@dataclass(frozen=True)
class BiasParams:
    """Bias detuning epsilon in rad/time (epsilon = 2 pi gamma_e B); a
    float, or an array to evaluate a whole bias grid in one call."""

    epsilon: float | np.ndarray = 0.0

    def __post_init__(self):
        if not np.isfinite(self.epsilon).all():
            raise ValueError("epsilon must be finite")


@dataclass(frozen=True)
class SignalComponents:
    """Term-by-term decomposition at one tau, in the spin-1/2 (S_z)
    normalization; the canonical sigma_z signal is 2x the term sum.

    weights are the bare coefficients (a^4/2 (1-2b^2), a^2 b^4/2,
    -2 a^4 b^2, b^4/2 (a^2+1)) without decay or oscillation factors.
    """

    constant_term: float
    ramsey_like_term: float
    cos_delta_term: float
    cos_2delta_term: float
    weights: tuple

    @property
    def total(self) -> float:
        """Canonical sigma_z signal: twice the term sum."""
        return 2.0 * (self.constant_term + self.ramsey_like_term
                      + self.cos_delta_term + self.cos_2delta_term)


def component_weights(theta: float) -> tuple:
    """Tilt-dependent weights of the four signal components."""
    a, b = np.cos(theta), np.sin(theta)
    return (a ** 4 / 2 * (1 - 2 * b ** 2),
            a ** 2 * b ** 4 / 2,
            -2 * a ** 4 * b ** 2,
            b ** 4 / 2 * (a ** 2 + 1))


def _exponents(noise: NoiseParams, tau):
    return f1(noise, tau), delta_f(noise, tau)


def _float_or_array(out):
    return out if out.ndim else float(out)


def _detuned_echo_terms(theta, delta, F1, dF, tau, epsilon) -> tuple:
    """The four terms of the detuned-echo signal (S_z normalization) for
    exponents F1, dF and a common-mode bias epsilon; F1, dF, tau and
    epsilon broadcast.  At epsilon = 0 the bias factors are exactly 1 and
    0, so each term is its weight times its decay and fringe factors."""
    w0, w1, w2, w3 = component_weights(theta)
    k = np.cos(theta) ** 3 * np.sin(theta) ** 2
    u = epsilon * tau
    return (w0,
            (w1 * np.cos(2 * u) - k * np.sin(2 * u)) * np.exp(-2.0 * (F1 + dF)),
            (w2 * np.cos(u) - 2 * k * np.sin(u)) * np.cos(delta * tau)
            * np.exp(-F1),
            w3 * np.cos(2.0 * delta * tau) * np.exp(-2.0 * (F1 - dF)))


def signal_from_exponents(kind: SequenceKind, theta: float, delta: float,
                          F1, dF, tau):
    """Closed-form signal of the standard sequence of a kind (see
    spincore.build_sequence), given the dephasing exponents F1 and dF at
    tau; F1, dF and tau broadcast.

    The ramsey closed form holds at theta = pi/2 only.  The hahn echo is
    resonant (theta = pi/2, delta = 0), so both are ignored for it.
    """
    if kind is SequenceKind.RAMSEY:
        if not math.isclose(theta, math.pi / 2):
            raise ValueError("the closed-form ramsey signal assumes theta = pi/2")
        return np.cos(delta * tau) * np.exp(-F1)
    if kind is SequenceKind.HAHN_ECHO:
        return np.exp(-2.0 * (F1 - dF))
    if kind is SequenceKind.HAHN_RAMSEY:
        return 2.0 * sum(_detuned_echo_terms(theta, delta, F1, dF, tau, 0.0))
    raise ValueError(f"no closed-form signal for {kind!r}")


def closed_form_signal(kind: SequenceKind, theta: float, delta: float,
                       noise: NoiseParams, tau):
    """Closed-form signal in [-1, 1] of the standard sequence of a kind;
    tau is the delay of each free interval, as in spincore.build_sequence."""
    tau = np.asarray(tau, dtype=float)
    return _float_or_array(signal_from_exponents(
        kind, theta, delta, *_exponents(noise, tau), tau))


def ramsey_signal(delta: float, noise: NoiseParams, tau):
    """Free-precession fringe cos(delta tau) exp(-F1) for ideal pi/2
    pulses (theta = pi/2); tau is the full free-precession time."""
    return closed_form_signal(SequenceKind.RAMSEY, math.pi / 2, delta, noise, tau)


def hahn_echo_signal(noise: NoiseParams, tau):
    """Resonant echo envelope exp(-2 (F1 - dF)); tau is the half
    interval, total sequence time 2 tau."""
    return closed_form_signal(SequenceKind.HAHN_ECHO, math.pi / 2, 0.0, noise, tau)


def hahn_ramsey_signal(theta: float, delta: float, noise: NoiseParams, tau):
    """Detuned-echo signal at total time 2 tau, in [-1, 1]."""
    return closed_form_signal(SequenceKind.HAHN_RAMSEY, theta, delta, noise, tau)


def signal_components(theta: float, delta: float, noise: NoiseParams,
                      tau: float) -> SignalComponents:
    """Split hahn_ramsey_signal into its four terms (S_z normalization)."""
    terms = _detuned_echo_terms(theta, delta, *_exponents(noise, float(tau)),
                                tau, 0.0)
    return SignalComponents(*(float(t) for t in terms),
                            weights=tuple(float(w) for w in component_weights(theta)))


def hr_signal_biased(theta: float, delta: float, bias: BiasParams,
                     noise: NoiseParams, tau):
    """Detuned-echo signal with a bias field shifting both free-interval
    phases by +epsilon*tau; reduces to hahn_ramsey_signal at epsilon 0."""
    tau = np.asarray(tau, dtype=float)
    terms = _detuned_echo_terms(theta, delta, *_exponents(noise, tau), tau,
                                bias.epsilon)
    return _float_or_array(2.0 * sum(terms))


def hr_signal_derivative(theta: float, delta: float, bias: BiasParams,
                         noise: NoiseParams, tau):
    """d(hr_signal_biased)/d(epsilon) at the given bias point."""
    tau = np.asarray(tau, dtype=float)
    a, b = np.cos(theta), np.sin(theta)
    e = bias.epsilon
    F1, dF = _exponents(noise, tau)
    out = 2.0 * (
        -2 * a ** 3 * b ** 2 * np.exp(-F1) * tau * np.cos(delta * tau)
        * (np.cos(e * tau) - a * np.sin(e * tau))
        - a ** 2 * b ** 2 * np.exp(-2.0 * (F1 + dF)) * tau
        * (2 * a * np.cos(2 * e * tau) + b ** 2 * np.sin(2 * e * tau)))
    return _float_or_array(out)
