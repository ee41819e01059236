"""Search oracle of the optimal tilt, independent of its closed form
analysis.OPTIMAL_THETA: the tilt maximizing the zero-bias slope
max_tau |d<s>/d epsilon| over a tau grid, found by a 181-tilt grid, one
closed-form call per tilt, and scipy's bounded scalar search between the
neighbouring grid tilts of the grid maximum.
"""

import numpy as np
from scipy.optimize import minimize_scalar

from hahnramsey.analytic import BiasParams, hr_signal_derivative


def optimal_theta_per_tilt(noise, delta, tau_grid, n_grid=181):
    tau_grid = np.asarray(tau_grid, dtype=float)
    thetas = np.linspace(1e-4, np.pi / 2 - 1e-4, n_grid)

    def objective(th):
        return float(np.max(np.abs(hr_signal_derivative(
            th, delta, BiasParams(0.0), noise, tau_grid))))

    vals = np.array([objective(th) for th in thetas])
    k = int(vals.argmax())
    lo, hi = thetas[max(0, k - 1)], thetas[min(n_grid - 1, k + 1)]
    ref = minimize_scalar(lambda th: -objective(th), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-10})
    return float(ref.x) if -ref.fun >= vals[k] else float(thetas[k])
