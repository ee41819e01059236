"""Independent reference values for the benchmark's output checks.

Nothing here imports ``hahnramsey``.  The signals are rebuilt from the
physics stated in the package README rather than from its closed forms:

* a pulse is the tilted-axis rotation R(theta, beta) =
  Ry(theta) Rz(beta) Ry(-theta); driving at -delta mirrors the tilt;
* a delay of length tau multiplies the state by exp(-i sigma_z phi / 2),
  with phi = sign * delta * tau + X and X the integrated noise;
* the noise has correlation C(dt) = Gamma^2 exp(-lambda |dt|), so the
  integrated phases of two adjacent windows are jointly Gaussian with
  Var X = 2 F1 and Cov(X1, X2) = 2 dF, where
  F1 = (Gamma/lambda)^2 (lambda tau + exp(-lambda tau) - 1) and
  dF = (Gamma/lambda)^2 (1 - exp(-lambda tau))^2 / 2
  follow from integrating C over one window and over two adjacent ones.

<sigma_z> after a sequence is a trigonometric polynomial in the delay
phases with harmonics -1..1 per phase.  The coefficients are read off by
a discrete Fourier transform of exact 2x2 propagation on a phase grid,
and each harmonic exp(i (m X1 + n X2)) is averaged over the Gaussian
phases as exp(-(m^2 + n^2) F1 - 2 m n dF).  The detuned-echo weights of
s(2 tau) = 2 [w0 + w1 e^{-2(F1+dF)} + w2 cos(delta tau) e^{-F1}
+ w3 cos(2 delta tau) e^{-2(F1-dF)}] come out of the same coefficients.
"""

from __future__ import annotations

import math

import numpy as np

HALF_PI = math.pi / 2
#: slope-maximizing tilt at delta = 0, arctan(sqrt(2/3)) (README)
OPTIMAL_THETA = math.atan(math.sqrt(2.0 / 3.0))
_GRID = 4   # phase samples per delay; exact for harmonics -1..1


def f1(lam, gamma, tau):
    x = lam * np.asarray(tau, dtype=float)
    return (gamma / lam) ** 2 * (x + np.exp(-x) - 1.0)


def delta_f(lam, gamma, tau):
    e = np.exp(-lam * np.asarray(tau, dtype=float))
    return 0.5 * (gamma / lam) ** 2 * (1.0 - e) ** 2


def _ry(a):
    c, s = math.cos(a / 2), math.sin(a / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(a):
    return np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])


def pulse(theta, beta, sign=+1):
    th = sign * theta
    return _ry(th) @ _rz(beta) @ _ry(-th)


def ramsey_pulses(theta=HALF_PI):
    """pi/2 -- delay(+) -- 3 pi/2 readout about the same axis."""
    return [pulse(theta, HALF_PI), pulse(theta, 3 * HALF_PI)], [+1]


def echo_pulses(theta):
    """pi/2 at +delta -- delay(+) -- pi at -delta -- delay(-) -- pi/2 at
    +delta; theta = pi/2 is the resonant Hahn echo."""
    return ([pulse(theta, HALF_PI), pulse(theta, math.pi, -1),
             pulse(theta, HALF_PI)], [+1, -1])


def _sigma_z(pulses, phases):
    psi = pulses[0] @ np.array([1, 0], dtype=complex)
    for u, phi in zip(pulses[1:], phases):
        psi = u @ (np.array([np.exp(-0.5j * phi), np.exp(0.5j * phi)]) * psi)
    return float(abs(psi[0]) ** 2 - abs(psi[1]) ** 2)


def harmonics(pulses):
    """Fourier coefficients c[m, n] of <sigma_z> in the delay phases,
    indexed by harmonic (m, n) in -1..1 (numpy negative indexing)."""
    n_delay = len(pulses) - 1
    grid = 2 * np.pi * np.arange(_GRID) / _GRID
    vals = np.empty((_GRID,) * n_delay)
    for idx in np.ndindex(vals.shape):
        vals[idx] = _sigma_z(pulses, [grid[k] for k in idx])
    return np.fft.ifftn(vals)


def signal(pulses, signs, delta, lam, gamma, tau):
    """Gaussian-averaged <sigma_z> for delays of length tau each."""
    tau = np.asarray(tau, dtype=float)
    c = harmonics(pulses)
    F1, dF = f1(lam, gamma, tau), delta_f(lam, gamma, tau)
    out = np.zeros(tau.shape, dtype=complex)
    for idx in np.ndindex(c.shape):
        h = [k if k <= _GRID // 2 else k - _GRID for k in idx]
        if max(abs(k) for k in h) > 1:
            continue
        mean_phase = sum(k * s for k, s in zip(h, signs)) * delta * tau
        if len(h) == 1:
            decay = np.exp(-h[0] ** 2 * F1)
        else:
            m, n = h
            decay = np.exp(-(m * m + n * n) * F1 - 2 * m * n * dF)
        out += c[idx] * np.exp(1j * mean_phase) * decay
    return out.real


def ramsey(delta, lam, gamma, tau):
    return signal(*ramsey_pulses(), delta, lam, gamma, tau)


def hahn_echo(lam, gamma, tau):
    return signal(*echo_pulses(HALF_PI), 0.0, lam, gamma, tau)


def hahn_ramsey(theta, delta, lam, gamma, tau):
    return signal(*echo_pulses(theta), delta, lam, gamma, tau)


def component_weights(theta):
    """(w0, w1, w2, w3) of the detuned-echo decomposition, in the S_z
    normalization of the README formula (half the sigma_z coefficient)."""
    c = harmonics(echo_pulses(theta)[0])
    w0 = c[0, 0].real
    w1 = (c[1, 1] + c[-1, -1]).real          # e^{i(X1+X2)}: no delta phase
    w2 = (c[1, 0] + c[-1, 0]).real + (c[0, 1] + c[0, -1]).real
    w3 = (c[1, -1] + c[-1, 1]).real
    return tuple(0.5 * w for w in (w0, w1, w2, w3))


def gaussian_envelope(t, amp, w, phi, tc, c):
    """Decay-fit model A cos(w t + phi) exp(-(t/tc)^2) + c (README)."""
    return amp * np.cos(w * t + phi) * np.exp(-((t / tc) ** 2)) + c


def min_detectable_field(tau, u, v, gamma_e):
    """Per-shot field floor 1/(3 pi gamma_e tau alpha sqrt(beta)) with
    contrast alpha = (u-v)/(u+v) and mean counts beta = (u+v)/2."""
    alpha = (u - v) / (u + v)
    beta = (u + v) / 2
    return 1.0 / (3 * math.pi * gamma_e * tau * alpha * math.sqrt(beta))
