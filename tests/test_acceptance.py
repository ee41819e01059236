"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime (run with ``pytest -v -s``).  Tolerances
are fixed here, not tuned at runtime."""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from hahnramsey.analysis import (OPTIMAL_THETA, FitModel, ReadoutModel,
                                 fit_decay, max_bias_slope,
                                 min_detectable_field, scan_noise_params)
from hahnramsey.analytic import BiasParams, closed_form_signal
from hahnramsey.cli import main as cli_main
from hahnramsey.montecarlo import McConfig, run_mc, SignalCurve
from hahnramsey.noise import FilterKind, NoiseParams, filter_exponents
from hahnramsey.spincore import SequenceKind, build_sequence
from biased_signal import hr_signal_biased
from filter_oracle import chi_filter, textbook_exponents
from spin_oracle import propagate, sigma_z
from tilt_oracle import optimal_theta_per_tilt

LAM = 2.5
GAMMA = 2 * np.pi * 0.1
THETA = 0.2 * np.pi
DELTA = 2 * np.pi * 0.3
FIG_NOISE = NoiseParams(LAM, GAMMA)
QUIET = NoiseParams(LAM, 0.0)


def report(num, desc, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} {status} ({elapsed:6.2f} s): {desc} {detail}")
    assert ok, f"criterion {num}: {desc} {detail}"


def matrix_signal(theta, delta, tau, eps=0.0):
    seq = build_sequence(SequenceKind.HAHN_RAMSEY, theta, delta, tau)
    return sigma_z(propagate(seq.elements, delta, eps=eps))


def test_criterion_1_closed_form_matches_matrix_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for _ in range(1000):
        th = rng.uniform(1e-3, np.pi / 2)
        d = rng.uniform(-6, 6)
        tau = rng.uniform(0, 5)
        e = rng.uniform(-2, 2)
        worst = max(worst, abs(closed_form_signal(SequenceKind.HAHN_RAMSEY, th, d,
                                                  QUIET, tau)
                               - matrix_signal(th, d, tau)))
        worst = max(worst, abs(hr_signal_biased(th, d, BiasParams(e), QUIET, tau)
                               - matrix_signal(th, d, tau, e)))
    el = time.perf_counter() - t0
    report(1, "closed forms equal matrix propagation (1000 draws, 1e-10)",
           worst < 1e-10 and el < 1.0, el, f"max|diff|={worst:.2e}")


def test_criterion_2_dephasing_constants_match_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for lamtau in np.geomspace(0.01, 20.0, 12):
        tau = lamtau / LAM
        c = lambda t1, t2: GAMMA ** 2 * np.exp(-LAM * abs(t2 - t1))
        same = quad(lambda t2: quad(lambda t1: c(t1, t2), 0, t2,
                                    epsabs=1e-16, epsrel=1e-12)[0],
                    0, tau, epsabs=1e-16, epsrel=1e-12)[0]
        cross = 0.5 * quad(lambda t2: quad(lambda t1: c(t1, t2), 0, tau,
                                           epsabs=1e-16, epsrel=1e-12)[0],
                           tau, 2 * tau, epsabs=1e-16, epsrel=1e-12)[0]
        # F1 is the half-period exponent, dF a quarter of the gap between
        # the Ramsey-like and Hahn-like ones
        ramsey_like, half_period, hahn_like = filter_exponents(FIG_NOISE, tau)
        worst = max(worst, abs(half_period - same) / same)
        worst = max(worst, abs((ramsey_like - hahn_like) / 4 - cross) / cross)
    el = time.perf_counter() - t0
    report(2, "F1/dF closed forms vs 2-d quadrature (1e-8 rel)",
           worst < 1e-8 and el < 10.0, el, f"max rel err={worst:.2e}")


def test_criterion_3_filter_function_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for tau in np.geomspace(0.01 / LAM, 10 / LAM, 50):
        for kind, want, exponent in zip(FilterKind, textbook_exponents(FIG_NOISE, tau),
                                        filter_exponents(FIG_NOISE, tau)):
            got = chi_filter(kind, FIG_NOISE, tau)
            for ref in (want, exponent):
                worst = max(worst, abs(got - ref) / ref)
    el = time.perf_counter() - t0
    report(3, "spectral-overlap quadrature vs closed forms (50 taus, 1e-4 rel)",
           worst < 1e-4 and el < 30.0, el, f"max rel err={worst:.2e}")


def test_criterion_4_monte_carlo_agreement():
    t0 = time.perf_counter()
    taus = np.linspace(0.15, 6.0, 40)
    cfg = McConfig(n_trajectories=100_000, master_seed=777)
    runs = [(SequenceKind.RAMSEY, np.pi / 2, DELTA),
            (SequenceKind.HAHN_ECHO, np.pi / 2, 0.0),
            (SequenceKind.HAHN_RAMSEY, THETA, DELTA)]
    ok = True
    details = []
    for kind, th, d in runs:
        ref = closed_form_signal(kind, th, d, FIG_NOISE, taus)
        curve = run_mc(kind, th, d, FIG_NOISE, taus, cfg)
        z = np.abs(curve.means - ref) / curve.stderrs
        frac = (z < 3).mean()
        details.append(f"{kind.value}: {100 * frac:.0f}% within 3 sigma")
        ok = ok and frac >= 0.95
    el = time.perf_counter() - t0
    report(4, "MC (1e5 traj) vs closed forms, 40 taus x 3 sequences",
           ok and el < 300.0, el, "; ".join(details))


def test_criterion_5_decay_constant_ordering():
    t0 = time.perf_counter()
    t_r = np.linspace(0.05, 9.0, 90)      # ramsey total time = tau
    t_e = np.linspace(0.05, 14.0, 90)     # echoes total time = 2 tau
    def as_curve(t, y):
        return SignalCurve(t, np.asarray(y), np.zeros_like(t), 0)
    ram = fit_decay(as_curve(t_r, closed_form_signal(
        SequenceKind.RAMSEY, np.pi / 2, DELTA, FIG_NOISE, t_r)))
    hr = fit_decay(as_curve(t_e, closed_form_signal(
        SequenceKind.HAHN_RAMSEY, THETA, DELTA, FIG_NOISE, t_e / 2)))
    he = fit_decay(as_curve(t_e, closed_form_signal(
        SequenceKind.HAHN_ECHO, np.pi / 2, 0.0, FIG_NOISE, t_e / 2)))
    ok = (hr.tau_c - hr.tau_c_err > ram.tau_c + ram.tau_c_err
          and hr.tau_c - hr.tau_c_err > he.tau_c + he.tau_c_err)
    el = time.perf_counter() - t0
    report(5, "fitted decay constants: detuned echo beats ramsey and echo",
           ok and el < 60.0, el,
           f"tc_hr={hr.tau_c:.2f}({hr.tau_c_err:.2f}) "
           f"tc_ram={ram.tau_c:.2f}({ram.tau_c_err:.2f}) "
           f"tc_echo={he.tau_c:.2f}({he.tau_c_err:.2f})")


def test_criterion_6_hahn_echo_reduction():
    t0 = time.perf_counter()
    taus = np.linspace(0.0, 8.0, 161)
    hr = np.asarray(closed_form_signal(SequenceKind.HAHN_RAMSEY, np.pi / 2, 0.0,
                                       FIG_NOISE, taus))
    expected = np.exp(-(GAMMA / LAM) ** 2
                      * (2 * LAM * taus - 3 + 4 * np.exp(-LAM * taus)
                         - np.exp(-2 * LAM * taus)))
    worst = np.abs(hr - expected).max()
    el = time.perf_counter() - t0
    report(6, "theta=pi/2, delta=0 reduces to the standard echo exponent",
           worst < 1e-12, el, f"max|diff|={worst:.2e}")


def test_criterion_7_optimal_tilt_angle():
    t0 = time.perf_counter()
    # a per-tilt search of the slope lands on the closed form arctan(sqrt(2/3))
    found = optimal_theta_per_tilt(FIG_NOISE, DELTA, np.linspace(0.2, 4.0, 20))
    miss = abs(found - OPTIMAL_THETA)
    el = time.perf_counter() - t0
    ok = abs(OPTIMAL_THETA - 0.2 * np.pi) < 0.05 * np.pi and miss < 2e-8 and el < 60.0
    report(7, "slope-maximizing tilt within 0.2 pi +- 0.05 pi",
           ok, el, f"theta={OPTIMAL_THETA / np.pi:.4f} pi, search off by {miss:.1e}")


def test_criterion_8_sensitivity_formula_cross_check():
    t0 = time.perf_counter()
    # optimal tilt, fringe peak (cos(delta tau) = 1), operating delay
    # inside the coherence window; the closed formula neglects envelope
    # decay so the tolerance absorbs the decay loss at lambda tau = 2.5
    tau = 1.0
    slope = max_bias_slope(OPTIMAL_THETA, 2 * np.pi / tau, FIG_NOISE, tau)
    r = ReadoutModel(1.3, 0.7)
    gamma_e = 2.8025
    db_numeric = 1.0 / (r.alpha * np.sqrt(r.beta) * 2 * np.pi * gamma_e * slope)
    db_formula = min_detectable_field(r, tau, gamma_e)
    rel = abs(db_formula - db_numeric) / db_numeric
    el = time.perf_counter() - t0
    report(8, "closed-form field floor vs numeric slope estimator (25%)",
           rel < 0.25 and el < 60.0, el, f"rel diff={rel:.3f}")


def test_criterion_9_scan_truth_recovery():
    t0 = time.perf_counter()
    taus = np.linspace(0.1, 6.0, 40)
    lam_grid = np.linspace(1.5, 3.5, 11)
    gam_grid = np.linspace(2 * np.pi * 0.06, 2 * np.pi * 0.14, 11)
    truth = (5, 5)
    clean = np.asarray(closed_form_signal(
        SequenceKind.RAMSEY, np.pi / 2, DELTA,
        NoiseParams(lam_grid[truth[0]], gam_grid[truth[1]]), taus))
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(8000 + seed)
        data = SignalCurve(taus, clean + rng.normal(0, 0.005, taus.size),
                           np.zeros_like(taus), 0)
        m = scan_noise_params(data, SequenceKind.RAMSEY, np.pi / 2, DELTA,
                              lam_grid, gam_grid)
        if (abs(m.argmin[0] - truth[0]) <= 1
                and abs(m.argmin[1] - truth[1]) <= 1):
            hits += 1
    el = time.perf_counter() - t0
    report(9, "scan argmin within one grid cell of truth (>=95/100)",
           hits >= 95 and el < 300.0, el, f"hits={hits}/100")


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    base = ["simulate", "--sequence", "hahn_ramsey", "--theta", str(THETA),
            "--delta", str(DELTA), "--lam", str(LAM), "--gamma", str(GAMMA),
            "--tau-start", "0", "--tau-stop", "2", "--tau-count", "8",
            "--engine", "montecarlo", "--n-trajectories", "3000",
            "--seed", "424242"]
    blobs = []
    for i, workers in enumerate((1, 2, 4, 1)):
        out = tmp_path / f"run{i}"
        assert cli_main([*base, "--workers", str(workers),
                         "--out", str(out)]) == 0
        blobs.append((out / "hahn_ramsey_montecarlo.csv").read_bytes())
    ok = all(b == blobs[0] for b in blobs)
    el = time.perf_counter() - t0
    report(10, "seeded MC runs byte-identical at any worker count",
           ok and el < 60.0, el)
