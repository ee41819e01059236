#!/usr/bin/env python3
"""Three-sequence comparison at the canonical demo parameters
(theta = 0.2 pi, lambda = 2.5 /us, gamma = 2 pi x 0.1 rad/us).

Writes analytic and Monte Carlo curves for the free-precession fringe
(ramsey), the resonant echo (hahn_echo) and the detuned echo
(hahn_ramsey), then fits the decay constants on the common
total-duration axis and prints them.  The detuned echo should come out
slowest by a wide margin.
"""

import argparse
from pathlib import Path

import numpy as np

from hahnramsey.analysis import fit_decay
from hahnramsey.analytic import closed_form_signal
from hahnramsey.cli import main as cli
from hahnramsey.noise import NoiseParams
from hahnramsey.spincore import Delay, SequenceKind, build_sequence

THETA = 0.2 * np.pi
DELTA = 2 * np.pi * 0.3
LAM = 2.5
GAMMA = 2 * np.pi * 0.1

# sequence, detuning, tilt, end of the total-duration window for the fit
SEQUENCES = [("ramsey", DELTA, np.pi / 2, 9.0),
             ("hahn_echo", 0.0, np.pi / 2, 14.0),
             ("hahn_ramsey", DELTA, THETA, 14.0)]


def run(out: Path, n_traj: int, seed: int) -> None:
    for seq, delta, theta, _ in SEQUENCES:
        rc = cli(["simulate", "--sequence", seq, "--theta", str(theta),
                  "--delta", str(delta), "--lam", str(LAM),
                  "--gamma", str(GAMMA), "--tau-start", "0.05",
                  "--tau-stop", "7", "--tau-count", "60",
                  "--engine", "both", "--n-trajectories", str(n_traj),
                  "--seed", str(seed), "--out", str(out)])
        assert rc == 0, f"simulate {seq} failed"

    # decay constants on the total-duration axis: a sequence with n
    # delays of tau each lasts n tau
    p = NoiseParams(LAM, GAMMA)
    print("fitted decay constants (total-duration axis):")
    for seq, delta, theta, t_end in SEQUENCES:
        kind = SequenceKind(seq)
        n_delays = sum(isinstance(el, Delay)
                       for el in build_sequence(kind, theta, delta, 1.0))
        t = np.linspace(0.05, t_end, 90)
        y = np.asarray(closed_form_signal(kind, theta, delta, p, t / n_delays))
        fit = fit_decay(t, y)
        print(f"  {seq:12s} tau_c = {fit.tau_c:6.2f} +- {fit.tau_c_err:.2f} us")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/comparison")
    ap.add_argument("--n-trajectories", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()
    run(Path(args.out), args.n_trajectories, args.seed)
