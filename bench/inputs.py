"""Seeded inputs for the benchmark workloads.

Everything the program reads comes from here: Monte Carlo seeds derived
from the workload seed and the round index, and the data files for
``fit`` and ``scan``, written from the benchmark's own formulas in
``reference``.  The same seed gives the same inputs.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import reference

# paper demo values (README): lambda = 2.5 /us, Gamma = 2 pi 0.1 rad/us,
# theta = 0.2 pi, delta = 2 pi 0.3 rad/us, tau from 0.05 to 7 us
LAM = 2.5
GAMMA = 2 * math.pi * 0.1
THETA = 0.2 * math.pi
DELTA = 2 * math.pi * 0.3
TAU_START, TAU_STOP = 0.05, 7.0
# weak-noise point of the renewal and finite-pulse spot checks
# (Gamma / lambda = 0.1)
GAMMA_WEAK = 0.25
RABI = 2 * math.pi * 1.0

# scan: 101 x 101 (lambda, Gamma) grid around the demo point
SCAN_LAMBDA = (1.0, 4.0, 101)
SCAN_GAMMA = (0.2, 1.2, 101)
SCAN_TAUS = np.linspace(0.1, 6.0, 40)
# fit: Gaussian-envelope data with known tau_c, noise and stderr column
FIT_TAUS = np.linspace(0.0, 12.0, 121)
FIT_NOISE = 0.01


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))


def mc_seed(seed: int, round_idx: int, request_idx: int) -> int:
    """Master seed for one Monte Carlo request of one round."""
    ss = np.random.SeedSequence([seed, round_idx, request_idx])
    return int(ss.generate_state(1, np.uint32)[0])


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def scan_input(seed: int, path: Path) -> tuple:
    """Noise-free detuned-echo curve at one cell of the scan grid, chosen
    from the seed away from the edges; returns the cell (i_lam, i_gamma)."""
    rng = _rng(seed, 1)
    i, j = (int(k) for k in rng.integers(10, 91, size=2))
    lam = np.linspace(*SCAN_LAMBDA)[i]
    gamma = np.linspace(*SCAN_GAMMA)[j]
    y = reference.hahn_ramsey(THETA, DELTA, lam, gamma, SCAN_TAUS)
    _write_csv(path, "tau,signal", zip(SCAN_TAUS, y))
    return i, j


def fit_input(seed: int, path: Path) -> dict:
    """Noisy Gaussian-envelope fringe with a stderr column; returns the
    generating parameters."""
    rng = _rng(seed, 2)
    truth = {"amp": float(rng.uniform(0.6, 0.9)),
             "w": float(rng.uniform(1.5, 2.5)),
             "phi": float(rng.uniform(-0.5, 0.5)),
             "tau_c": float(rng.uniform(3.0, 5.0)),
             "c": float(rng.uniform(-0.1, 0.1))}
    y = reference.gaussian_envelope(FIT_TAUS, truth["amp"], truth["w"],
                                    truth["phi"], truth["tau_c"], truth["c"])
    y = y + rng.normal(0.0, FIT_NOISE, FIT_TAUS.size)
    _write_csv(path, "tau,signal,stderr",
               zip(FIT_TAUS, y, np.full(FIT_TAUS.size, FIT_NOISE)))
    return truth
