"""The detuned-echo signal under a bias field, summed from the terms that
analytic._detuned_echo_terms forms: the model that
analytic.hr_signal_derivative differentiates."""

import numpy as np

from hahnramsey.analytic import _detuned_echo_terms
from hahnramsey.noise import filter_exponents


def hr_signal_biased(theta, delta, epsilon, noise, tau):
    """Signal in [-1, 1] with both free-interval phases shifted by
    epsilon * tau; the closed-form hahn_ramsey signal at epsilon 0."""
    tau = np.asarray(tau, dtype=float)
    return 2.0 * sum(_detuned_echo_terms(theta, delta, filter_exponents(noise, tau),
                                         tau, epsilon))
