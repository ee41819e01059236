"""Arithmetic oracle of the residual scan: the chunk loop of
analysis.scan_noise_params as it stood before its passes were made
contiguous, kept verbatim so that a test can require the scan's residuals
to be the same bits.  Per chunk it fills the difference buffer with the
data less the constant, then per filter window forms the exponent by a
broadcast product, takes exp, multiplies by the amplitude (broadcast
along tau) and subtracts; the squared sum is an einsum.
"""

import numpy as np

from hahnramsey.analytic import _decay_amplitudes
from hahnramsey.noise import NoiseParams, filter_exponents


def scan_residuals(data, seq_kind, theta, delta, lambda_grid, gamma_grid,
                   buffer_bytes):
    """The (lambda, gamma) map of ||data - model||^2 / ||data - mean||^2,
    in chunks of buffer_bytes // (8 taus) cells."""
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    taus = np.asarray(data.taus, dtype=float)
    y = np.asarray(data.means, dtype=float)
    tss = float(((y - y.mean()) ** 2).sum())
    constant, amplitudes = _decay_amplitudes(seq_kind, theta, delta, taus)
    cells = max(1, buffer_bytes // (8 * taus.size))
    rows, cols = max(1, cells // gamma_grid.size), min(cells, gamma_grid.size)
    block = cells // rows * rows
    diff = np.empty((rows, cols, taus.size))
    term = np.empty_like(diff)
    res = np.empty((lambda_grid.size, gamma_grid.size))
    for top in range(0, lambda_grid.size, block):
        unit = filter_exponents(NoiseParams(1.0, 1.0),
                                lambda_grid[top:top + block, None] * taus)
        windows = [(a, e) for a, e in zip(amplitudes, unit) if a is not None]
        for start in range(top, min(top + block, lambda_grid.size), rows):
            lam = lambda_grid[start:start + rows, None]
            for first in range(0, gamma_grid.size, cols):
                gamma = gamma_grid[first:first + cols]
                minus_scale = -(gamma / lam) ** 2
                d = diff[:len(lam), :len(gamma)]
                t = term[:len(lam), :len(gamma)]
                d[...] = y - constant
                for a, e in windows:
                    np.multiply(minus_scale[:, :, None],
                                e[start - top:start - top + rows, None, :], out=t)
                    np.exp(t, out=t)
                    t *= a
                    d -= t
                np.einsum("ijk,ijk->ij", d, d,
                          out=res[start:start + rows, first:first + cols])
    res /= tss if tss > 0 else 1.0
    return res
