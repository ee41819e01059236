#!/usr/bin/env python3
"""Noiseless Bloch-sphere trajectories of one detuned-echo fringe for a
family of tilt angles, exported as t,x,y,z point sets, one directory per
tilt."""

import argparse
from pathlib import Path

import numpy as np

from hahnramsey.cli import main as cli

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/bloch")
    ap.add_argument("--delta", type=float, default=2 * np.pi * 0.3)
    ap.add_argument("--tau", type=float, default=1.0)
    args = ap.parse_args()
    for theta in (0.49 * np.pi, 0.3 * np.pi, 0.2 * np.pi):
        out = Path(args.out) / f"theta_{theta / np.pi:.2f}pi"
        rc = cli(["bloch", "--sequence", "hahn_ramsey", "--theta", repr(theta),
                  "--delta", repr(args.delta), "--tau", repr(args.tau),
                  "--samples", "120", "--out", str(out)])
        if rc:
            raise SystemExit(rc)
