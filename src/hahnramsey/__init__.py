"""Detuned spin-echo (Hahn-Ramsey) dephasing simulator and analysis toolkit.

Modules:

* ``spincore``   pulses, pulse sequences and drive tilt
* ``noise``      exponentially correlated dephasing noise, its exact
                 window samplers and its closed-form decay exponents
* ``analytic``   closed-form expected signals and their decomposition
* ``montecarlo`` independent stochastic validation engine, one entry point
                 for instantaneous and finite pulses
* ``analysis``   envelope fits, noise-parameter scans, DC sensitivity
* ``cli``        config-driven command-line frontend
"""

from .analysis import (DecayFit, FitError, FitModel, GAMMA_E_PER_GAUSS,
                       OPTIMAL_THETA, ReadoutModel, ResidualMap,
                       SensitivityResult, fit_decay, max_bias_slope,
                       min_detectable_field, scan_noise_params, sensitivity)
from .analytic import (BiasParams, closed_form_signal, component_weights,
                       hr_signal_derivative, signal_from_exponents)
from .montecarlo import McConfig, SignalCurve, run_mc
from .noise import FilterKind, NoiseKind, NoiseParams, f1, filter_exponents
from .spincore import (Delay, DrivingParams, PulseParams, PulseSequence,
                       SequenceKind, build_sequence, tilt_angle)

__version__ = "0.1.0"
