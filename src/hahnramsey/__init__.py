"""Detuned spin-echo (Hahn-Ramsey) dephasing simulator and analysis toolkit.

Modules:

* ``spincore``   exact two-level dynamics, pulses, sequences
* ``noise``      exponentially correlated dephasing noise and its
                 decay exponents (closed form and spectral quadrature)
* ``analytic``   closed-form expected signals and their decomposition
* ``montecarlo`` independent stochastic validation engine, one entry point
                 for instantaneous and finite pulses
* ``analysis``   envelope fits, noise-parameter scans, DC sensitivity
* ``cli``        config-driven command-line frontend
"""

from .analysis import (DecayFit, FitError, FitModel, GAMMA_E_PER_GAUSS,
                       ReadoutModel, ResidualMap, SensitivityResult,
                       fit_decay, max_bias_slope, min_detectable_field,
                       optimal_theta, scan_noise_params, sensitivity)
from .analytic import (BiasParams, SignalComponents, closed_form_signal,
                       component_weights, hahn_echo_signal, hahn_ramsey_signal,
                       hr_signal_biased, hr_signal_derivative, ramsey_signal,
                       signal_components, signal_from_exponents)
from .montecarlo import (BlochPoint, McConfig, SignalCurve, bloch_to_csv,
                         bloch_trajectory, run_mc)
from .noise import (FilterKind, NoiseKind, NoiseParams, QuadratureError,
                    chi_filter, correlation, delta_f, f1)
from .spincore import (DensityMatrix, Delay, DrivingParams, PulseParams,
                       PulseSequence, SequenceKind, SpinState, TiltAngle,
                       TiltConvention, analytic_density_matrix_hr,
                       build_sequence, delay_phases, expectation_sigma_z, free_phase_unitary,
                       hahn_echo_sequence, hahn_ramsey_sequence,
                       long_time_density_matrix, propagate, ramsey_sequence,
                       rotation_matrix, tilt_angle)

__version__ = "0.1.0"
