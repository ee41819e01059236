"""Closed-form expected signals under exponentially correlated Gaussian
dephasing.

The detuned-echo (Hahn-Ramsey) signal decomposes into a constant plus
three decaying components,

    s(2 tau) = 2 [ a^4/2 (1 - 2 b^2)
                 + a^2 b^4 / 2        exp(-chi_R)
                 - 2 a^4 b^2          cos(delta tau)   exp(-chi_1)
                 + b^4/2 (a^2 + 1)    cos(2 delta tau) exp(-chi_H) ]

with a = cos theta, b = sin theta, and (chi_R, chi_1, chi_H) the
Ramsey-like, half-period and Hahn-like filter exponents, which
noise.filter_exponents forms in that (FilterKind) order: in the
dephasing integrals F1 and dF, chi_1 = F1 and chi_R, chi_H = 2 F1 +/- 2 dF.
Every closed form here takes those three and builds none of them; each
signal is a constant plus a tau-only amplitude times exp(-exponent) per
window (_decay_amplitudes), so a scan over the noise parameters forms
the amplitudes once.  The
bracketed sum is the spin-1/2 (S_z) expectation; the factor 2 converts
uniformly to the canonical sigma_z signal in [-1, 1], which is what
direct matrix propagation yields.

A static bias field shifts the accumulated phase of both free intervals
by +epsilon*tau (common mode).  _detuned_echo_terms forms the biased
terms; the DC-sensitivity analysis reads the epsilon derivative of their
sum, hr_signal_derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import NoiseParams, _float_or_array, filter_exponents
from .spincore import SequenceKind, is_resonant

__all__ = [
    "BiasParams", "closed_form_signal", "signal_from_exponents",
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


def component_weights(theta: float) -> tuple:
    """Tilt-dependent weights of the four signal components."""
    a, b = np.cos(theta), np.sin(theta)
    return (a ** 4 / 2 * (1 - 2 * b ** 2),
            a ** 2 * b ** 4 / 2,
            -2 * a ** 4 * b ** 2,
            b ** 4 / 2 * (a ** 2 + 1))


def _detuned_echo_amplitudes(theta, delta, tau, epsilon) -> tuple:
    """The constant and, in FilterKind order, the three decay amplitudes of
    the detuned-echo signal (S_z normalization) for a common-mode bias
    epsilon: each term is its amplitude times exp(-its filter exponent).
    tau and epsilon broadcast.  At epsilon = 0 the bias factors are
    exactly 1 and 0, so each amplitude is its weight times its fringe
    factor."""
    w0, w1, w2, w3 = component_weights(theta)
    k = np.cos(theta) ** 3 * np.sin(theta) ** 2
    u = epsilon * tau
    return w0, (w1 * np.cos(2 * u) - k * np.sin(2 * u),
                (w2 * np.cos(u) - 2 * k * np.sin(u)) * np.cos(delta * tau),
                w3 * np.cos(2.0 * delta * tau))


def _detuned_echo_terms(theta, delta, exponents, tau, epsilon) -> tuple:
    """The four terms of the detuned-echo signal (S_z normalization) for
    the filter exponents (Ramsey-like, half-period, Hahn-like) and a
    common-mode bias epsilon; the exponents, tau and epsilon broadcast."""
    constant, amplitudes = _detuned_echo_amplitudes(theta, delta, tau, epsilon)
    return (constant, *(a * np.exp(-e) for a, e in zip(amplitudes, exponents)))


def _decay_amplitudes(kind: SequenceKind, theta: float, delta: float, tau) -> tuple:
    """(constant, amplitudes) of the closed-form signal of the standard
    sequence of a kind: the signal is the constant plus, per filter window
    in FilterKind order, its amplitude times exp(-its exponent).  An
    amplitude is None where the kind has no term in that window.  Neither
    depends on the noise, so a caller scanning many noise parameters forms
    them once per tau.

    The ramsey closed form holds at theta = pi/2 only.  The hahn echo is
    resonant (theta = pi/2, delta = 0), so both are ignored for it.
    """
    # no constant term: -0.0, the exact additive identity (a zero term,
    # an underflowed fringe, keeps its sign)
    if kind is SequenceKind.RAMSEY:
        if not is_resonant(theta):
            raise ValueError("the closed-form ramsey signal assumes theta = pi/2")
        return -0.0, (None, np.cos(delta * tau), None)
    if kind is SequenceKind.HAHN_ECHO:
        return -0.0, (None, None, 1.0)
    constant, amplitudes = _detuned_echo_amplitudes(theta, delta, tau, 0.0)
    return 2.0 * constant, tuple(2.0 * a for a in amplitudes)


def signal_from_exponents(kind: SequenceKind, theta: float, delta: float,
                          exponents, tau):
    """Closed-form signal of the standard sequence of a kind (see
    spincore.build_sequence), given its three filter exponents at tau in
    FilterKind order, as noise.filter_exponents returns them; the
    exponents and tau broadcast.  The sum of _decay_amplitudes, whose
    docstring states where each kind's closed form holds."""
    out, amplitudes = _decay_amplitudes(kind, theta, delta, tau)
    for a, e in zip(amplitudes, exponents):
        if a is not None:
            out = out + a * np.exp(-e)
    return out


def closed_form_signal(kind: SequenceKind, theta: float, delta: float,
                       noise: NoiseParams, tau):
    """Closed-form signal in [-1, 1] of the standard sequence of a kind;
    tau is the delay of each free interval, as in spincore.build_sequence."""
    tau = np.asarray(tau, dtype=float)
    return _float_or_array(signal_from_exponents(
        kind, theta, delta, filter_exponents(noise, tau), tau))


def _bias_slope_coefficients(theta, delta, noise: NoiseParams, tau) -> tuple:
    """Coefficients of the bias slope, the epsilon derivative of the two
    bias-dependent terms of _detuned_echo_terms: with u = epsilon tau,
    a = cos theta and b = sin theta, d<s>/d epsilon =
    2 [p (cos u - a sin u) + q (2 a cos 2u + b^2 sin 2u)], where
    p = -2 a^3 b^2 tau cos(delta tau) exp(-chi_1), q = -a^2 b^2 tau
    exp(-chi_R), with chi_1 and chi_R the half-period and Ramsey-like
    exponents.  At u = 0 the slope is 2 (p + 2 a q), so its whole tilt
    dependence is the factor cos^3 theta sin^2 theta."""
    a, b = np.cos(theta), np.sin(theta)
    ramsey_like, half_period, _ = filter_exponents(noise, tau)
    p = -2 * a ** 3 * b ** 2 * np.exp(-half_period) * tau * np.cos(delta * tau)
    q = -a ** 2 * b ** 2 * np.exp(-ramsey_like) * tau
    return p, q


def hr_signal_derivative(theta: float, delta: float, bias: BiasParams,
                         noise: NoiseParams, tau):
    """d<s>/d(epsilon) at the given bias point, where the biased
    detuned-echo signal <s> in [-1, 1] is twice the sum of
    _detuned_echo_terms; at epsilon 0 <s> is the closed-form hahn_ramsey
    signal."""
    tau = np.asarray(tau, dtype=float)
    a, b = np.cos(theta), np.sin(theta)
    e = bias.epsilon
    p, q = _bias_slope_coefficients(theta, delta, noise, tau)
    out = 2.0 * (p * (np.cos(e * tau) - a * np.sin(e * tau))
                 + q * (2 * a * np.cos(2 * e * tau) + b ** 2 * np.sin(2 * e * tau)))
    return _float_or_array(out)
