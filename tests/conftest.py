import math

import numpy as np
import pytest


def _sample_ou_ensemble(p, grid, n, seed):
    """n OU trajectories at the grid times, shape (n, len(grid)).

    Exact transition chain: stationary start F(t0) ~ Normal(0, Gamma^2),
    then F(t+d) = F(t) exp(-lam d) + Normal(0, Gamma^2 (1 - exp(-2 lam d))).
    Trapezoid integrals over a fine grid make it the stepped oracle of the
    exact OU window kernel.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((n, len(grid)))
    out[:, 0] = rng.normal(0.0, p.gamma, n)
    for k in range(len(grid) - 1):
        decay = math.exp(-p.lam * (grid[k + 1] - grid[k]))
        sd = p.gamma * math.sqrt(max(0.0, 1.0 - decay * decay))
        out[:, k + 1] = out[:, k] * decay + rng.normal(0.0, sd, n)
    return out


@pytest.fixture
def sample_ou_ensemble():
    return _sample_ou_ensemble
