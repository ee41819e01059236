import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filter_oracle import textbook_exponents
from hahnramsey.analytic import (_detuned_echo_terms, closed_form_signal,
                                 signal_from_exponents)
import hahnramsey
from hahnramsey import analysis, cli, montecarlo
from hahnramsey.cli import (MAX_TRAJECTORY_POINTS, RunConfig, config_hash, main,
                           read_curve_csv)
from hahnramsey.montecarlo import _bloch_path
from hahnramsey.noise import NoiseParams, filter_exponents
from hahnramsey.spincore import PulseParams, SequenceKind, build_sequence


def run(args):
    return main([str(a) for a in args])


def read_rows(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(c) for c in line.split(",")])
    return header, np.array(rows)


BASE = ["--sequence", "hahn_ramsey", "--theta", 0.2 * np.pi, "--delta", 1.885,
        "--lam", 2.5, "--gamma", 0.6283, "--tau-start", 0, "--tau-stop", 2,
        "--tau-count", 6]


def test_simulate_analytic(tmp_path):
    assert run(["simulate", *BASE, "--engine", "analytic",
                "--out", tmp_path]) == 0
    header, rows = read_rows(tmp_path / "hahn_ramsey_analytic.csv")
    assert header == ["tau", "signal"]
    ref = closed_form_signal(SequenceKind.HAHN_RAMSEY, 0.2 * np.pi, 1.885,
                             NoiseParams(2.5, 0.6283), rows[:, 0])
    np.testing.assert_allclose(rows[:, 1], ref, atol=1e-12)


def test_simulate_quiet_engines_agree(tmp_path):
    assert run(["simulate", *BASE[:-6], "--gamma", 0, "--tau-start", 0,
                "--tau-stop", 2, "--tau-count", 6, "--engine", "both",
                "--n-trajectories", 100, "--out", tmp_path]) == 0
    _, an = read_rows(tmp_path / "hahn_ramsey_analytic.csv")
    _, mc = read_rows(tmp_path / "hahn_ramsey_montecarlo.csv")
    np.testing.assert_allclose(an[:, 1], mc[:, 1], atol=1e-12)
    assert (mc[:, 2] == 0).all()
    _, cmp_rows = read_rows(tmp_path / "hahn_ramsey_compare.csv")
    assert (cmp_rows[:, 4] == 0).all()     # z-scores


def test_noisy_tau_zero_has_zero_stderr_and_zscore(tmp_path):
    # at theta 0.2 pi the rounding residue happened to cancel
    assert run(["simulate", *BASE[:2], "--theta", 0.6283, *BASE[4:], "--engine",
                "both", "--n-trajectories", 20000, "--seed", 7,
                "--out", tmp_path]) == 0
    _, rows = read_rows(tmp_path / "hahn_ramsey_compare.csv")
    assert rows[0, 0] == 0.0
    assert rows[0, 3] == 0.0 and rows[0, 4] == 0.0   # stderr, zscore
    assert (rows[1:, 3] > 0).all()


def test_simulate_rejects_bad_grid(tmp_path, capsys):
    out = tmp_path / "o"
    rc = run(["simulate", *BASE[:-4], "--tau-stop", -1, "--tau-count", 6,
              "--engine", "analytic", "--out", out])
    assert rc == 2
    assert not out.exists()                # nothing written
    assert "tau_stop" in capsys.readouterr().err


def test_simulate_determinism(tmp_path):
    args = ["simulate", *BASE, "--engine", "montecarlo",
            "--n-trajectories", 3000, "--seed", 99]
    run([*args, "--workers", 1, "--out", tmp_path / "a"])
    run([*args, "--workers", 3, "--out", tmp_path / "b"])
    fa = (tmp_path / "a" / "hahn_ramsey_montecarlo.csv").read_bytes()
    fb = (tmp_path / "b" / "hahn_ramsey_montecarlo.csv").read_bytes()
    assert fa == fb


def test_config_file_and_env_override(tmp_path, monkeypatch):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "sequence": "ramsey", "delta": 1.0, "lambda": 2.5, "gamma": 0.3,
        "tau_start": 0.0, "tau_stop": 3.0, "tau_count": 5,
        "engine": "analytic", "out": str(tmp_path / "x")}))
    monkeypatch.setenv("HRSIM_TAU_COUNT", "7")
    assert run(["simulate", "--config", cfgfile]) == 0
    _, rows = read_rows(tmp_path / "x" / "ramsey_analytic.csv")
    assert rows.shape[0] == 7              # env beat the file
    # flags beat env
    assert run(["simulate", "--config", cfgfile, "--tau-count", 4]) == 0
    _, rows = read_rows(tmp_path / "x" / "ramsey_analytic.csv")
    assert rows.shape[0] == 4


def test_freq_unit_cycles(tmp_path):
    out1, out2 = tmp_path / "r", tmp_path / "c"
    common = ["simulate", "--sequence", "ramsey", "--lam", 2.5,
              "--tau-start", 0, "--tau-stop", 2, "--tau-count", 5,
              "--engine", "analytic"]
    run([*common, "--delta", 2 * np.pi * 0.5, "--gamma", 2 * np.pi * 0.1,
         "--out", out1])
    run([*common, "--delta", 0.5, "--gamma", 0.1, "--freq-unit", "cycles",
         "--out", out2])
    _, a = read_rows(out1 / "ramsey_analytic.csv")
    _, b = read_rows(out2 / "ramsey_analytic.csv")
    np.testing.assert_allclose(a, b, atol=1e-14)


def test_config_hash_header_stable(tmp_path):
    run(["simulate", *BASE, "--engine", "analytic", "--out", tmp_path / "a"])
    run(["simulate", *BASE, "--engine", "analytic", "--out", tmp_path / "b"])
    la = (tmp_path / "a" / "hahn_ramsey_analytic.csv").read_text().splitlines()[0]
    lb = (tmp_path / "b" / "hahn_ramsey_analytic.csv").read_text().splitlines()[0]
    assert la.startswith("# config_sha256=") and la == lb


def test_time_step_is_hashed_only_for_finite_pulses(tmp_path):
    mc = ["simulate", *BASE, "--engine", "montecarlo", "--n-trajectories", 200]
    files = {}
    for pulses in (["--pulse-model", "instantaneous"],
                   ["--pulse-model", "finite", "--rabi", 6.283]):
        for step in (0.01, 0.5):
            out = tmp_path / f"{pulses[1]}-{step}"
            assert run([*mc, *pulses, "--time-step", step, "--out", out]) == 0
            files[pulses[1], step] = (out / "hahn_ramsey_montecarlo.csv").read_text()
    # instantaneous pulses: time_step changes neither the data nor the header
    assert files["instantaneous", 0.01] == files["instantaneous", 0.5]
    headers = [files["finite", step].splitlines()[0] for step in (0.01, 0.5)]
    assert headers[0].startswith("# config_sha256=") and headers[0] != headers[1]


def test_components(tmp_path):
    assert run(["components", "--lam", 2.5, "--gamma", 0.6283,
                "--tau-start", 0, "--tau-stop", 2, "--tau-count", 9,
                "--theta-count", 10, "--out", tmp_path]) == 0
    _, exps = read_rows(tmp_path / "filter_exponents.csv")
    assert np.allclose(exps[0, 1:], 0.0)   # tau = 0 row
    p = NoiseParams(2.5, 0.6283)
    np.testing.assert_allclose(exps[1:, 1:], np.column_stack(
        textbook_exponents(p, exps[1:, 0])), rtol=1e-4)
    # the file holds filter_exponents to the last written digit
    assert exps[:, 1:].T.tolist() == [e.tolist() for e in filter_exponents(p, exps[:, 0])]
    _, w = read_rows(tmp_path / "component_weights.csv")
    last = w[-1]                           # theta = pi/2 row
    assert np.allclose(last[1:4], 0.0, atol=1e-12)
    assert last[4] == pytest.approx(0.5)


def test_fit_roundtrip_and_missing_file(tmp_path, capsys):
    data = tmp_path / "c.csv"
    t = np.linspace(0, 6, 50)
    with open(data, "w") as fh:
        fh.write("tau,signal\n")
        for ti, yi in zip(t, np.cos(1.7 * t) * np.exp(-((t / 2) ** 2))):
            fh.write(f"{ti},{yi}\n")
    assert run(["fit", "--data", data, "--model", "gaussian",
                "--out", tmp_path]) == 0
    payload = json.loads((tmp_path / "fit_c.json").read_text())
    assert abs(payload["tau_c"] - 2.0) < 1e-6
    assert "config_sha256" in payload
    assert run(["fit", "--data", tmp_path / "nope.csv", "--out", tmp_path]) == 2


def test_fit_pinned_to_a_bound_says_so(tmp_path):
    # a plain exponential cannot follow an oscillating fringe: its tau_c
    # ends on the lower bound 1e-4 x tmax, where the tau_c column of the
    # Jacobian vanishes and tau_c_err reads 0.0
    data = tmp_path / "fringe.csv"
    t = np.linspace(0, 7, 60)
    with open(data, "w") as fh:
        fh.write("tau,signal\n")
        for ti, yi in zip(t, 0.5 + 0.4 * np.cos(2 * t) * np.exp(-((t / 4) ** 2))):
            fh.write(f"{ti},{yi}\n")
    reports = {}
    for model in ("exponential", "gaussian"):
        assert run(["fit", "--data", data, "--model", model,
                    "--out", tmp_path / model]) == 0
        reports[model] = json.loads((tmp_path / model / "fit_fringe.json").read_text())
    pinned = reports["exponential"]
    assert pinned["tau_c"] == pytest.approx(1e-4 * 7, rel=1e-12)
    assert pinned["tau_c_err"] == 0.0
    assert len(pinned["warnings"]) == 1 and pinned["warnings"][0].startswith("tau_c ")
    # the envelope model fits the fringe, and its report has no warnings
    assert reports["gaussian"]["tau_c"] == pytest.approx(4.0, rel=1e-6)
    assert "warnings" not in reports["gaussian"]


def test_fit_reaching_its_step_cap_beside_a_bound_reports_the_pin(tmp_path):
    # a fringe decaying far slower than its span: the plain exponential's
    # offset ends on its upper bound, and amplitude and tau_c walk a flat
    # valley beside it until the step cap; the fit is reported, flagged
    data = tmp_path / "slow.csv"
    t = np.linspace(0, 7, 60)
    with open(data, "w") as fh:
        fh.write("tau,signal\n")
        for ti, yi in zip(t, 0.5 + 0.4 * np.cos(2 * t) * np.exp(-((t / 100) ** 2))):
            fh.write(f"{ti},{yi}\n")
    assert run(["fit", "--data", data, "--model", "exponential",
                "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "fit_slow.json").read_text())
    assert len(report["warnings"]) == 1 and report["warnings"][0].startswith("offset ")
    vals = [v for v in report.values() if isinstance(v, (int, float))]
    assert vals and all(map(math.isfinite, vals))


def test_scan_command(tmp_path):
    taus = np.linspace(0.1, 6, 40)
    p = NoiseParams(2.5, 0.6)      # truth on both scan grids
    data = tmp_path / "ram.csv"
    with open(data, "w") as fh:
        fh.write("tau,signal\n")
        for ti, yi in zip(taus, np.asarray(closed_form_signal(
                SequenceKind.RAMSEY, np.pi / 2, 1.885, p, taus))):
            fh.write(f"{ti},{yi}\n")
    assert run(["scan", "--sequence", "ramsey", "--delta", 1.885,
                "--data", data,
                "--lambda-min", 1.5, "--lambda-max", 3.5, "--lambda-count", 5,
                "--gamma-min", 0.3, "--gamma-max", 1.0, "--gamma-count", 8,
                "--out", tmp_path]) == 0
    header, rows = read_rows(tmp_path / "scan_ram.csv")
    assert header == ["lambda", "gamma", "residual"]
    assert rows.shape == (40, 3)
    best = rows[np.argmin(rows[:, 2])]
    assert best[0] == pytest.approx(2.5)
    assert best[1] == pytest.approx(0.6)
    # the map's cells as written, in '%.17g' text, under the config stamp
    taus, signal, _ = cli.read_curve_csv(data)
    m = analysis.scan_noise_params(taus, signal, SequenceKind.RAMSEY,
                                   np.pi / 2, 1.885, np.linspace(1.5, 3.5, 5),
                                   np.linspace(0.3, 1.0, 8))
    lines = (tmp_path / "scan_ram.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[2:] == [f"{lam:.17g},{gam:.17g},{m.residuals[i, j]:.17g}"
                         for i, lam in enumerate(m.lambda_grid)
                         for j, gam in enumerate(m.gamma_grid)]


def test_sensitivity_command(tmp_path):
    assert run(["sensitivity", "--lam", 2.5, "--gamma", 0.6283,
                "--theta", 0.2 * np.pi, "--u", 1.3, "--v", 0.7,
                "--out", tmp_path]) == 0
    payload = json.loads((tmp_path / "sensitivity.json").read_text())
    assert payload["delta_b_min_gauss"] > 0
    assert payload["optimal_theta_rad"] == pytest.approx(0.2 * np.pi)


def test_bloch_command(tmp_path):
    assert run(["bloch", "--sequence", "hahn_ramsey", "--theta", 0.2 * np.pi,
                "--delta", 1.885, "--tau", 1.0, "--samples", 15,
                "--out", tmp_path]) == 0
    _, rows = read_rows(tmp_path / "bloch_hahn_ramsey.csv")
    assert tuple(rows[0, 1:]) == (0.0, 0.0, 1.0)
    norms = (rows[:, 1:] ** 2).sum(axis=1)
    assert np.abs(norms - 1).max() < 1e-10


def test_bloch_csv(tmp_path):
    # the path's rows as written, in '%.17g' text, under the config stamp
    assert run(["bloch", "--sequence", "hahn_ramsey", "--theta", 0.2 * np.pi,
                "--delta", 2 * np.pi * 0.3, "--tau", 0.9, "--samples", 10,
                "--out", tmp_path]) == 0
    lines = (tmp_path / "bloch_hahn_ramsey.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1] == "t,x,y,z"
    want = _bloch_path(SequenceKind.HAHN_RAMSEY, 0.2 * np.pi, 2 * np.pi * 0.3, 0.9, 10)
    assert len(lines) == 2 + len(want) == 2 + 1 + 5 * 10
    assert lines[2:] == [",".join("%.17g" % v for v in row) for row in want.tolist()]


@pytest.mark.parametrize("pulse_model, warned", [("instantaneous", False),
                                                 ("finite", True)])
def test_montecarlo_csv_is_the_curve_of_run_mc(pulse_model, warned, tmp_path):
    # the curve's rows as written, in '%.17g' text, under the config stamp
    # and a line per run_mc warning; OU noise with instantaneous pulses
    # never reads time_step, so its bytes do not depend on it
    taus = np.linspace(0, 2, 6)
    means, errs, warnings = montecarlo.run_mc(
        SequenceKind.HAHN_RAMSEY, 0.2 * np.pi, 1.885, NoiseParams(2.5, 0.6283), taus,
        3000, 11, 20.0 if pulse_model == "finite" else None, 0.5)
    assert bool(warnings) == warned
    texts = []
    for step in (0.01, 0.5):
        out = tmp_path / f"step_{step}"
        assert run(["simulate", *BASE, "--engine", "montecarlo", "--rabi", 20.0,
                    "--pulse-model", pulse_model, "--n-trajectories", 3000,
                    "--seed", 11, "--time-step", step, "--out", out]) == 0
        texts.append((out / "hahn_ramsey_montecarlo.csv").read_text())
    lines = texts[1].splitlines()
    assert lines[0].startswith("# config_sha256=")
    assert lines[1:] == [f"# warning: {w}" for w in warnings] + [
        "tau,mean,stderr,n"] + [f"{t:.17g},{m:.17g},{e:.17g},3000" for t, m, e in
                                zip(taus, means, errs)]
    assert (texts[0] == texts[1]) is (pulse_model == "instantaneous")


def test_simulate_with_component_columns(tmp_path):
    assert run(["simulate", *BASE, "--engine", "analytic",
                "--with-components", "--out", tmp_path]) == 0
    header, rows = read_rows(tmp_path / "hahn_ramsey_analytic.csv")
    assert header == ["tau", "signal", "component_constant",
                      "component_ramsey_like", "component_cos_delta",
                      "component_cos_2delta"]
    # term sum is the half-normalized signal
    np.testing.assert_allclose(2 * rows[:, 2:].sum(axis=1), rows[:, 1],
                               atol=1e-12)
    # one array call over the taus gives the per-tau decomposition
    p = NoiseParams(2.5, 0.6283)
    per_tau = [_detuned_echo_terms(0.2 * np.pi, 1.885, filter_exponents(p, t), t, 0.0)
               for t in rows[:, 0]]
    np.testing.assert_allclose(rows[:, 2:], per_tau, rtol=0, atol=1e-15)


def test_fit_tau_scale(tmp_path):
    t = np.linspace(0, 6, 50)           # file in "units of 2 us"
    data = tmp_path / "scaled.csv"
    with open(data, "w") as fh:
        fh.write("tau,signal\n")
        for ti, yi in zip(t, np.cos(1.7 * t) * np.exp(-((t / 2) ** 2))):
            fh.write(f"{ti},{yi}\n")
    assert run(["fit", "--data", data, "--tau-scale", 2.0,
                "--out", tmp_path]) == 0
    payload = json.loads((tmp_path / "fit_scaled.json").read_text())
    assert abs(payload["tau_c"] - 4.0) < 1e-5


def test_hahn_echo_rejects_detuning(tmp_path, capsys):
    rc = run(["simulate", "--sequence", "hahn_echo", "--delta", 1.0,
              "--lam", 2.5, "--gamma", 0.3, "--tau-start", 0,
              "--tau-stop", 2, "--tau-count", 4, "--engine", "analytic",
              "--out", tmp_path])
    assert rc == 2


# a tilt 1 ulp below pi/2 (and pi/2 - 1.6e-12) was exit 2 for the CLI while
# build_sequence and the closed forms took it as resonant
_NEAR_RESONANT = [math.pi / 2, math.nextafter(math.pi / 2, 0.0),
                  math.pi / 2 * (1 - 1e-12)]


@pytest.mark.parametrize("theta", [*_NEAR_RESONANT, math.pi / 2 * (1 - 1e-8), 1.0])
@pytest.mark.parametrize("sequence, engine", [
    ("hahn_echo", "analytic"), ("hahn_echo", "montecarlo"), ("ramsey", "analytic")])
def test_cli_takes_a_tilt_as_resonant_where_the_sequences_do(sequence, engine,
                                                             theta, tmp_path):
    kind = SequenceKind(sequence)
    try:
        if kind is SequenceKind.HAHN_ECHO:
            build_sequence(kind, theta, 0.0, 1.0)
        else:
            closed_form_signal(kind, theta, 0.0, NoiseParams(2.5, 0.6), 1.0)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted is (theta in _NEAR_RESONANT)
    args = ["simulate", "--sequence", sequence, "--lam", 2.5, "--gamma", 0.6,
            "--tau-stop", 2, "--tau-count", 5, "--engine", engine,
            "--n-trajectories", 50]
    assert run([*args, "--theta", theta, "--out", tmp_path / "t"]) == \
        (0 if accepted else 2)
    if accepted:
        # hahn_echo runs at exactly pi/2; ramsey's closed form ignores the tilt
        assert run([*args, "--out", tmp_path / "r"]) == 0
        name = f"{sequence}_{engine}.csv"
        assert read_rows(tmp_path / "t" / name)[1].tobytes() == \
            read_rows(tmp_path / "r" / name)[1].tobytes()


@pytest.mark.parametrize("delta", [1.5, -1.5])
@pytest.mark.parametrize("sequence", ["ramsey", "hahn_ramsey"])
def test_finite_pulses_drive_at_the_given_detuning(sequence, delta, tmp_path):
    # one tilt law, theta = arctan(rabi / |delta|), which the timeline
    # inverts: rabi 2 at detuning 1.5 drives each pulse at 1.5, mirrored by
    # its detuning sign, for its area over hypot(2, 1.5) = 2.5
    with mock.patch.object(montecarlo, "run_mc", wraps=montecarlo.run_mc) as rec:
        assert run(["simulate", "--sequence", sequence, "--engine", "montecarlo",
                    "--pulse-model", "finite", "--rabi", 2, "--delta", delta,
                    "--n-trajectories", 2, "--out", tmp_path]) == 0
    kind, theta, d, noise, _, _, _, rabi, time_step = rec.call_args.args
    assert rabi == 2.0
    pulses = [el for el in build_sequence(kind, theta, d, 1.0)
              if isinstance(el, PulseParams)]
    windows = [op for op in montecarlo._plan(kind, theta, d, noise, 1.0, rabi,
                                             time_step)[0] if op[2]]
    assert len(windows) == len(pulses) == (2 if sequence == "ramsey" else 3)
    for (h, rate, rabi, steps), el in zip(windows, pulses):
        assert rate == pytest.approx(el.detuning_sign * 1.5, rel=1e-15)
        assert h * steps == pytest.approx(el.beta / 2.5, rel=1e-15)
        assert rabi == 2.0


def test_the_tilt_has_no_second_convention(tmp_path, capsys):
    # the nutation convention and its field are gone: a config key or a
    # flag that asks for one exits 2 and names it
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tilt_convention": "nutation"}')
    args = ["simulate", "--rabi", 2, "--delta", 1.5, "--out", tmp_path / "o"]
    assert run([*args, "--config", cfg]) == 2
    assert "config field 'tilt_convention'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run([*args, "--tilt-convention", "nutation"])
    assert exc.value.code == 2
    assert "--tilt-convention" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["HRSIM_TILT_CONVENTION", "HRSIM_FOO",
                                  "HRSIM_tau_count", "HRSIM_"])
def test_an_unknown_hrsim_variable_exits_2(name, tmp_path, monkeypatch, capsys):
    # every HRSIM_ variable is read, and one that names no field is bad
    # input, as an unknown config file key is
    monkeypatch.setenv(name, "nutation")
    out = tmp_path / "o"
    assert run(["simulate", "--rabi", 2, "--delta", 1.5, "--out", out]) == 2
    assert f"config field '{name}': unknown configuration key" in capsys.readouterr().err
    assert not out.exists()


def _rabi_stamp(out, *args):
    assert run(["simulate", "--rabi", 2, "--delta", 1.5, *args, "--out", out]) == 0
    return (out / "hahn_ramsey_analytic.csv").read_text().splitlines()[0]


def test_lambda_names_lam_in_the_environment_as_in_a_file(tmp_path, monkeypatch):
    # HRSIM_LAMBDA=7 is --lam 7, as "lambda" in a file is, and the
    # precedence stays flags > environment > file > defaults
    seven, three = (_rabi_stamp(tmp_path / f"flag{v}", "--lam", v) for v in (7, 3))
    assert seven != _rabi_stamp(tmp_path / "default")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"lambda": 3}')
    assert _rabi_stamp(tmp_path / "file", "--config", cfg) == three
    monkeypatch.setenv("HRSIM_LAMBDA", "7")
    assert _rabi_stamp(tmp_path / "env") == seven
    assert _rabi_stamp(tmp_path / "env_file", "--config", cfg) == seven
    assert _rabi_stamp(tmp_path / "env_flag", "--lam", 3) == three


@pytest.mark.parametrize("source", ["env", "file"])
def test_a_field_named_twice_in_one_source_exits_2(source, tmp_path, monkeypatch,
                                                   capsys):
    # lam and its alias lambda in one source leave no order to pick by
    args = ["simulate", "--rabi", 2, "--delta", 1.5, "--out", tmp_path / "o"]
    if source == "env":
        monkeypatch.setenv("HRSIM_LAM", "3")
        monkeypatch.setenv("HRSIM_LAMBDA", "7")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lam": 3, "lambda": 7}')
        args += ["--config", cfg]
    assert run(args) == 2
    assert "sets lam, as" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_finite_pulses(tmp_path):
    args = ["simulate", *BASE, "--engine", "montecarlo",
            "--pulse-model", "finite", "--rabi", 20.0,
            "--n-trajectories", 200, "--out", tmp_path]
    assert run(args) == 0
    _, rows = read_rows(tmp_path / "hahn_ramsey_montecarlo.csv")
    assert rows.shape[0] == 6
    assert np.abs(rows[:, 1]).max() <= 1 + 1e-9
    # finite pulses need a drive strength
    rc = run(["simulate", *BASE, "--engine", "montecarlo",
              "--pulse-model", "finite", "--out", tmp_path / "x"])
    assert rc == 2


@pytest.mark.parametrize("pulse_model, gamma, warned", [
    ("finite", 0.6283, True), ("finite", 0.0, False),
    ("instantaneous", 0.6283, False)])
def test_finite_pulse_compare_warns_it_is_no_gate(pulse_model, gamma, warned,
                                                  tmp_path):
    args = ["simulate", *BASE, "--gamma", gamma, "--engine", "both",
            "--pulse-model", pulse_model, "--rabi", 20.0,
            "--n-trajectories", 200, "--out", tmp_path]
    assert run(args) == 0
    lines = (tmp_path / "hahn_ramsey_compare.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    if warned:
        assert lines[1].startswith("# warning: ")
        assert "instantaneous pulses" in lines[1]
        assert "not a correctness gate" in lines[1]
        assert lines[2] == "tau,analytic,mc_mean,mc_stderr,zscore"
    else:
        assert lines[1] == "tau,analytic,mc_mean,mc_stderr,zscore"


def test_module_entry_point_runs_the_cli(tmp_path):
    src = str(Path(hahnramsey.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "hahnramsey.cli", "simulate", *map(str, BASE),
         "--engine", "analytic", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "hahn_ramsey_analytic.csv").is_file()
    assert "hahn_ramsey_analytic.csv" in proc.stdout


def _python(code, *args, timeout=120):
    src = str(Path(hahnramsey.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=timeout)


# one fresh process: no command loads scipy, the fits included
_COLD_START = """
import json, sys
import hahnramsey
from hahnramsey import analysis, cli, montecarlo

def run(*args):
    assert cli.main([str(a) for a in args]) == 0, args

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out, fit_data = sys.argv[1:]
noise = ["--lam", 2.5, "--gamma", 0.6]
run("simulate", "--sequence", "ramsey", "--delta", 1.885, *noise, "--tau-start", 0.1,
    "--tau-stop", 6, "--tau-count", 40, "--engine", "both",
    "--n-trajectories", 200, "--out", out)
run("components", *noise, "--tau-count", 5, "--theta-count", 5, "--out", out)
run("scan", "--sequence", "ramsey", "--delta", 1.885, "--data",
    out + "/ramsey_analytic.csv", "--lambda-min", 1.5, "--lambda-max", 3.5,
    "--lambda-count", 5, "--gamma-min", 0.3, "--gamma-max", 1.0,
    "--gamma-count", 8, "--out", out)
run("bloch", "--sequence", "hahn_ramsey", "--theta", 0.6, "--delta", 1.885,
    "--tau", 1.0, "--samples", 15, "--out", out)
run("fit", "--data", fit_data, "--out", out)
run("sensitivity", *noise, "--theta", 0.6, "--u", 1.3, "--v", 0.7, "--out", out)
print(json.dumps([scipy_modules(), "numpy.ma" in sys.modules]))
"""


def test_no_command_loads_scipy(tmp_path):
    data = tmp_path / "c.csv"
    t = np.linspace(0, 6, 50)
    with open(data, "w") as fh:
        fh.write("tau,signal\n")
        for ti, yi in zip(t, np.cos(1.7 * t) * np.exp(-((t / 2) ** 2))):
            fh.write(f"{ti},{yi}\n")
    proc = _python(_COLD_START, tmp_path / "cold", data)
    assert proc.returncode == 0, proc.stderr
    # no scipy, and no numpy.ma (np.median's first call imports it)
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], False]
    # same bytes as the same commands run in this process
    assert run(["fit", "--data", data, "--out", tmp_path / "warm"]) == 0
    assert run(["sensitivity", "--lam", 2.5, "--gamma", 0.6, "--theta", 0.6,
                "--u", 1.3, "--v", 0.7, "--out", tmp_path / "warm"]) == 0
    for name in ("fit_c.json", "sensitivity.json"):
        assert ((tmp_path / "cold" / name).read_bytes()
                == (tmp_path / "warm" / name).read_bytes())
    assert abs(json.loads((tmp_path / "cold" / "fit_c.json").read_text())["tau_c"]
               - 2.0) < 1e-6


def test_simulate_at_three_workers_starts_no_thread(tmp_path):
    # --workers is accepted and changes nothing: no pool is loaded and no
    # thread is started, whatever the count
    proc = _python("import sys, threading\n"
                   "def refuse(self): raise AssertionError('a thread was started')\n"
                   "threading.Thread.start = refuse\n"
                   "from hahnramsey.cli import main\n"
                   "rc = main(sys.argv[1:])\n"
                   "print(rc, 'concurrent.futures' in sys.modules)",
                   "simulate", "--sequence", "ramsey", "--delta", 1.885, "--lam", 2.5,
                   "--gamma", 0.6283, "--engine", "both", "--workers", 3,
                   "--n-trajectories", 100, "--tau-count", 3, "--out", tmp_path / "o")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "o" / "ramsey_compare.csv").exists()


@pytest.mark.parametrize("failing_point", [0, 1, 5])
def test_an_exception_at_any_tau_point_exits_3(failing_point, tmp_path, capsys):
    estimate = cli.montecarlo._point_estimate

    def failing(sample, noisy, n, seed, point_idx, tau):
        if point_idx == failing_point:
            raise FloatingPointError(f"point {point_idx} failed")
        return estimate(sample, noisy, n, seed, point_idx, tau)

    with mock.patch.object(cli.montecarlo, "_point_estimate", failing):
        rc = run(["simulate", *BASE, "--engine", "montecarlo", "--workers", 2,
                  "--n-trajectories", 50, "--out", tmp_path / "o"])
    assert rc == 3
    assert (f"FloatingPointError: point {failing_point} failed"
            in capsys.readouterr().err)
    assert not (tmp_path / "o" / "hahn_ramsey_montecarlo.csv").exists()


@pytest.mark.parametrize("noise_args", [
    ["--noise-kind", "ou", "--n-trajectories", 3 * 8192 + 17],
    ["--noise-kind", "renewal", "--gamma", 0.4, "--n-trajectories", 2 * 8192 + 5],
    ["--pulse-model", "finite", "--rabi", 2 * np.pi, "--time-step", 0.005,
     "--n-trajectories", 300],
    ["--noise-kind", "renewal", "--gamma", 0.4, "--pulse-model", "finite",
     "--rabi", 2 * np.pi, "--time-step", 0.005, "--n-trajectories", 300]],
    ids=["ou", "renewal", "finite_ou", "finite_renewal"])
def test_any_worker_count_writes_the_same_bytes(noise_args, tmp_path):
    args = ["simulate", *BASE[:-6], "--tau-start", 0.2, "--tau-stop", 2,
            "--tau-count", 5, "--engine", "montecarlo", "--seed", 4, *noise_args]
    files = []
    for workers in (1, 2, 3):
        assert run([*args, "--workers", workers, "--out", tmp_path / f"w{workers}"]) == 0
        files.append((tmp_path / f"w{workers}" / "hahn_ramsey_montecarlo.csv").read_bytes())
    assert files[0] == files[1] == files[2]


def test_finite_pulses_beyond_the_step_budget_exit_2(tmp_path):
    # a pulse of theta/rabi = 6e5 us would take about 3.5e8 noisy steps
    proc = _python("from hahnramsey.cli import entry; entry()",
                   "simulate", "--engine", "montecarlo", "--pulse-model", "finite",
                   "--rabi", 1e-6, "--lam", 2.5, "--gamma", 0.6, "--theta", 0.6,
                   "--delta", 1, "--sequence", "hahn_ramsey",
                   "--n-trajectories", 10, "--tau-count", 2,
                   "--out", tmp_path / "o", timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "'rabi'" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_renewal_beyond_the_event_budget_exit_2(tmp_path):
    # lam * sequence time = 2e8 expected events, one event-loop pass each
    proc = _python("from hahnramsey.cli import entry; entry()",
                   "simulate", "--engine", "montecarlo", "--noise-kind", "renewal",
                   "--lam", 1e8, "--gamma", 0.6, "--sequence", "ramsey",
                   "--delta", 1, "--tau-stop", 2, "--tau-count", 2,
                   "--n-trajectories", 4, "--out", tmp_path / "o", timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "'lam'" in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("engine", ["montecarlo", "both"])
def test_trajectory_points_beyond_the_bound_exit_2(engine, tmp_path):
    # 1e20 trajectories at 2 tau points: about 1e16 blocks per point
    proc = _python("from hahnramsey.cli import entry; entry()",
                   "simulate", "--engine", engine, "--theta", 0.6283,
                   "--delta", 1.885, "--lam", 2.5, "--gamma", 0.6283,
                   "--n-trajectories", 10 ** 20, "--tau-count", 2,
                   "--out", tmp_path / "o", timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "'n_trajectories'" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_trajectory_bound_keeps_the_demo_and_spares_the_analytic_engine(tmp_path):
    # README demo: 1e5 trajectories x 60 taus
    assert 100_000 * 60 <= MAX_TRAJECTORY_POINTS
    assert run(["simulate", "--engine", "analytic", "--n-trajectories", 10 ** 20,
                "--theta", 0.6283, "--lam", 2.5, "--gamma", 0.6283,
                "--out", tmp_path]) == 0


def test_components_resolve_large_exponents(tmp_path):
    # exponents near 1e8: the absolute 1e-8 target is below the float floor
    assert run(["components", "--lam", 2.5, "--gamma", 1e4, "--tau-stop", 2,
                "--out", tmp_path]) == 0
    header, rows = read_rows(tmp_path / "filter_exponents.csv")
    assert header == ["tau", "ramsey_like", "half_period", "hahn_like"]
    p = NoiseParams(2.5, 1e4)
    np.testing.assert_allclose(rows[:, 1:], np.column_stack(
        textbook_exponents(p, rows[:, 0])), rtol=1e-12, atol=0)


@pytest.mark.parametrize("args", [
    ["--lam=1e-6", "--gamma=0.6"], ["--lam=2.5", "--gamma=1e6"],
    ["--gamma=0.6", "--tau-stop=1e6"], ["--gamma=0.6", "--tau-start=5e-324"]])
def test_components_write_grids_past_the_former_quadrature(args, tmp_path):
    # grids the filter quadrature refused with exit 2; the closed forms hold
    assert run(["components", *args, "--out", tmp_path]) == 0
    _, rows = read_rows(tmp_path / "filter_exponents.csv")
    assert np.isfinite(rows).all() and (rows[:, 1:] >= 0).all()
    flags = dict(a.lstrip("-").split("=") for a in args)
    p = NoiseParams(float(flags.get("lam", 1.0)), float(flags["gamma"]))
    assert rows[:, 1:].T.tolist() == [e.tolist() for e in filter_exponents(p, rows[:, 0])]


def test_read_curve_csv_roundtrip(tmp_path):
    path = tmp_path / "x.csv"
    # Monte Carlo files hold a zero stderr at tau 0
    path.write_text("# comment\ntau,mean,stderr,n\n0.0,1.0,0,500\n"
                    "1.0,0.5,0.02,500\n")
    taus, signal, errs = read_curve_csv(path)
    assert taus.tolist() == [0.0, 1.0] and signal.tolist() == [1.0, 0.5]
    np.testing.assert_allclose(errs, [0.0, 0.02])
    # an n cell must still be an integer
    path.write_text("tau,mean,stderr,n\n0.0,1.0,0,500\n1.0,0.5,0.02,5.5\n")
    with pytest.raises(cli.ConfigError, match="x.csv line 3"):
        read_curve_csv(path)


# --------------------------------------------------------------------------
# bad input exits 2 and names the field, flag or file line

_FLOAT_FLAGS = {"theta": "--theta", "rabi": "--rabi", "delta": "--delta",
                "lam": "--lam", "gamma": "--gamma", "tau_start": "--tau-start",
                "tau_stop": "--tau-stop", "time_step": "--time-step"}


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", sorted(_FLOAT_FLAGS))
def test_non_finite_config_value_exits_2(field, value, source, tmp_path,
                                         monkeypatch, capsys):
    out = tmp_path / "o"
    args = ["simulate", "--engine", "both", "--out", out]
    if source == "flag":
        args.append(f"{_FLOAT_FLAGS[field]}={value}")
    else:
        monkeypatch.setenv(f"HRSIM_{field.upper()}", value)
    assert run(args) == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, field", [
    ('"seed": 1e400', "seed"),                    # overflowed int(): exit 3
    ('"tau_count": Infinity', "tau_count"),
    ('"n_trajectories": 2.7', "n_trajectories"),  # was truncated to 2, exit 0
    ('"tau_count": 1e20', "tau_count"),           # numpy size error, exit 3
    ('"delta": null', "delta"),                   # a TypeError, exit 3
])
def test_bad_config_file_count_exits_2(text, field, tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(f'{{"theta": 0.5, {text}}}')
    out = tmp_path / "o"
    assert run(["simulate", "--engine", "both", "--config", cfgfile,
                "--out", out]) == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not out.exists()


def _write_ramsey_data(path, rows=None, stderr=None):
    """40 rows of tau,signal, or of tau,signal,stderr given a stderr."""
    taus = np.linspace(0.1, 6, 40)
    y = np.asarray(closed_form_signal(SequenceKind.RAMSEY, np.pi / 2, 1.885,
                                      NoiseParams(2.5, 0.6), taus))
    tail = "" if stderr is None else f",{stderr}"
    with open(path, "w") as fh:
        fh.write("tau,signal\n" if stderr is None else "tau,signal,stderr\n")
        for ti, yi in zip(taus, y):
            fh.write(f"{ti},{yi}{tail}\n")
        for row in rows or ():
            fh.write(row + "\n")
    return path


_SCAN = ["scan", "--sequence", "ramsey", "--delta", 1.885,
         "--lambda-min", 1.5, "--lambda-max", 3.5, "--lambda-count", 5,
         "--gamma-min", 0.3, "--gamma-max", 1.0, "--gamma-count", 8]


@pytest.mark.parametrize("flag, value", [
    ("--lambda-min", "-1"), ("--lambda-min", "0"), ("--lambda-max", "nan"),
    ("--lambda-count", "0"), ("--gamma-min", "-1"), ("--gamma-max", "inf"),
    ("--gamma-count", "-3"), ("--lambda-max", "1e300"), ("--lambda-min", "1e-300"),
    ("--lambda-count", str(10 ** 20)),
])
def test_scan_rejects_bad_grid(flag, value, tmp_path, capsys):
    data = _write_ramsey_data(tmp_path / "ram.csv")
    out = tmp_path / "o"
    assert run([*_SCAN, "--data", data, f"{flag}={value}", "--out", out]) == 2
    assert f"'{flag[2:].replace('-', '_')}'" in capsys.readouterr().err
    assert not out.exists()


def test_scan_refuses_more_cells_than_max_count(tmp_path, capsys):
    # each count is within MAX_COUNT, their product is not
    data = _write_ramsey_data(tmp_path / "ram.csv")
    out = tmp_path / "o"
    assert run([*_SCAN, "--data", data, "--lambda-count=1001",
                "--gamma-count=1000", "--out", out]) == 2
    assert "'lambda_count, gamma_count'" in capsys.readouterr().err
    assert not out.exists()


def test_scan_refuses_more_work_than_max_scan_work(tmp_path, capsys):
    # 10^6 cells over 8001 rows, or over two files of 4001: each count and
    # file is within bounds, the work is not; refused before any cell
    assert cli.MAX_SCAN_WORK < 10 ** 6 * 8001
    data = tmp_path / "long.csv"
    data.write_text("tau,signal\n" + "".join(f"{0.001 * k!r},0.5\n" for k in range(8001)))
    halves = [_write_ramsey_data(tmp_path / name, rows=[f"{7 + 0.001 * k!r},0.1"
                                                        for k in range(3961)])
              for name in ("a.csv", "b.csv")]
    cells = ["--lambda-count=1000", "--gamma-count=1000"]
    for files, rows in ((["--data", data], 8001),
                        (["--data", halves[0], "--data", halves[1]], 8002)):
        out = tmp_path / "o"
        assert run([*_SCAN, *files, *cells, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "'lambda_count, gamma_count'" in err and f"over {rows} data rows" in err
        assert not out.exists()


def test_scan_work_bound_counts_cells_times_rows(tmp_path, capsys, monkeypatch):
    # _SCAN's 5 x 8 cells over 40 rows: at the bound the scan runs
    data = _write_ramsey_data(tmp_path / "ram.csv")
    monkeypatch.setattr(cli, "MAX_SCAN_WORK", 5 * 8 * 40)
    assert run([*_SCAN, "--data", data, "--out", tmp_path / "ok"]) == 0
    monkeypatch.setattr(cli, "MAX_SCAN_WORK", 5 * 8 * 40 - 1)
    out = tmp_path / "o"
    assert run([*_SCAN, "--data", data, "--out", out]) == 2
    assert "'lambda_count, gamma_count'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "scan"])
def test_data_rows_past_max_data_rows_exit_2(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_DATA_ROWS", 40)
    args = ["fit"] if command == "fit" else _SCAN
    # 40 rows are read, the 41st is refused where it stands
    assert run([*args, "--data", _write_ramsey_data(tmp_path / "ram.csv"),
                "--out", tmp_path / "ok"]) == 0
    data = _write_ramsey_data(tmp_path / "long.csv", rows=["6.5,0.1"])
    out = tmp_path / "o"
    assert run([*args, "--data", data, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "'data'" in err and "long.csv line 42" in err and "more than 40" in err
    assert not out.exists()


# RSS growth of a tall and a wide scan over a 3000-row file, in a fresh
# process: the peak (ru_maxrss, KiB) after the import, then after each scan
_SCAN_MEMORY = """
import resource, sys
from hahnramsey import analysis, cli, montecarlo
data, out = sys.argv[1:]
peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
for lam, gamma in [(3000, 1), (1, 3000)]:
    assert cli.main(["scan", "--sequence", "hahn_ramsey", "--theta", "0.6",
                     "--delta", "1.9", "--data", data, "--lambda-min", "1",
                     "--lambda-max", "4", "--lambda-count", str(lam),
                     "--gamma-min", "0.2", "--gamma-max", "1.2",
                     "--gamma-count", str(gamma), "--out", out]) == 0
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(*peaks)
"""


def test_scan_memory_follows_its_chunk_not_cells_times_taus(tmp_path):
    # cells x taus is 9e6 for both grids.  Forming the unit exponents for
    # the whole lambda grid asked for 72 MB per array (3000 x 3000 x 8 B)
    # on the tall one; a chunk of at least one whole gamma row asked for
    # two 72 MB buffers on the wide one.  Measured: 2.5 MiB.
    taus = np.linspace(0.0, 7.0, 3000)
    data = tmp_path / "long.csv"
    data.write_text("tau,signal\n" + "".join(
        f"{t!r},{y!r}\n" for t, y in zip(taus.tolist(), np.cos(taus).tolist())))
    proc = _python(_SCAN_MEMORY, data, tmp_path / "o")
    assert proc.returncode == 0, proc.stderr
    base, tall, wide = map(int, proc.stdout.splitlines()[-1].split())
    assert tall - base < 16 * 1024 and wide - base < 16 * 1024


def test_scan_refuses_data_files_that_share_a_stem(tmp_path, capsys):
    # both would write scan_ram.csv: the second map replaced the first, exit 0
    data = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        data += ["--data", _write_ramsey_data(tmp_path / name / "ram.csv")]
    out = tmp_path / "o"
    assert run([*_SCAN, *data, "--out", out]) == 2
    assert "'data'" in capsys.readouterr().err
    assert not out.exists()


def test_scan_and_simulate_share_the_ramsey_tilt_check(tmp_path, capsys):
    data = _write_ramsey_data(tmp_path / "ram.csv")
    assert run([*_SCAN, "--theta", 0.5, "--data", data,
                "--out", tmp_path / "s"]) == 2
    assert "'theta'" in capsys.readouterr().err
    assert run(["simulate", "--sequence", "ramsey", "--theta", 0.5,
                "--engine", "analytic", "--out", tmp_path / "a"]) == 2
    assert "'theta'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["scan", "simulate"])
def test_tiny_lambda_tau_with_large_gamma_over_lambda_stays_finite(command,
                                                                   tmp_path):
    # at lambda 1e-10 the exponents carry (Gamma/lambda)^2 = 1e20 times a
    # bracket of order (lambda tau)^2 = 1e-18; its rounding residue used to
    # write inf with exit 0
    out = tmp_path / "o"
    if command == "scan":
        args = [*_SCAN, "--lambda-max", 1e-10, "--lambda-count", 2,
                "--data", _write_ramsey_data(tmp_path / "ram.csv")]
    else:
        args = ["simulate", "--theta", 0.6283, "--delta", 1.885, "--lam", 1e-10,
                "--gamma", 1.0, "--tau-start", 0, "--tau-stop", 12,
                "--tau-count", 7]
    assert run([*args, "--out", out]) == 0
    (path,) = out.iterdir()
    rows = np.loadtxt(path, delimiter=",", comments="#", skiprows=2)
    assert np.isfinite(rows).all()
    if command == "simulate":
        # quasi-static noise: the (Ramsey-like, half-period, Hahn-like)
        # exponents are (2, 1/2, 0) (Gamma tau)^2 up to a relative
        # lambda tau = 1.2e-9; the Hahn-like one stays below 1.2e-7
        taus = rows[:, 0]
        want = signal_from_exponents(SequenceKind.HAHN_RAMSEY, 0.6283, 1.885,
                                     (2 * taus ** 2, taus ** 2 / 2, 0.0), taus)
        np.testing.assert_allclose(rows[:, 1], want, rtol=0, atol=1e-6)


_BAD_ROWS = ["1.0,abc", "7.0", "7.0,nan", "inf,0.5", "1.1e12,0.5", "-1.1e12,0.5",
             "-1.0,0.5"]


@pytest.mark.parametrize("command", ["fit", "scan"])
@pytest.mark.parametrize("row, stderr", [
    *((row, None) for row in _BAD_ROWS), *((row + ",0.01", 0.01) for row in _BAD_ROWS),
    # under a stderr header, a short row set every stderr to 0 and a
    # negative one dropped every fit weight, both with exit 0
    ("7.0,0.5", 0.01), ("7.0,0.5,-0.01", 0.01)])
def test_bad_data_row_names_file_and_line(command, row, stderr, tmp_path, capsys):
    data = _write_ramsey_data(tmp_path / "bad.csv", rows=[row], stderr=stderr)
    args = (["fit", "--data", data] if command == "fit"
            else [*_SCAN, "--data", data])
    assert run([*args, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "bad.csv line 42" in err       # header, 40 rows, then the bad one


@pytest.mark.parametrize("command", ["fit", "scan"])
def test_data_taus_beyond_max_magnitude_exit_2(command, tmp_path, capsys):
    # a tau_c 4, w 2 fringe on taus 0..12 x 1e300 used to fit to tau_c
    # 3.5e300 with tau_c_err 0 and exit 0
    x = np.linspace(0.0, 12.0, 121)
    data = tmp_path / "huge.csv"
    with open(data, "w") as fh:
        fh.write("tau,signal\n")
        for xi, yi in zip(x, np.cos(2 * x) * np.exp(-((x / 4) ** 2))):
            fh.write(f"{xi * 1e300:.17g},{yi:.17g}\n")
    args = (["fit", "--data", data] if command == "fit"
            else [*_SCAN, "--data", data])
    out = tmp_path / "o"
    assert run([*args, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "'data'" in err and "huge.csv line 3" in err   # tau 1e299, after 0
    assert not out.exists()


def test_scan_refuses_taus_the_tau_scale_takes_beyond_max_magnitude(tmp_path, capsys):
    data = _write_ramsey_data(tmp_path / "ram.csv")    # taus 0.1 .. 6
    out = tmp_path / "o"
    assert run([*_SCAN, "--data", data, "--tau-scale", 1e14, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "'data'" in err and "ram.csv line 2" in err   # tau 0.1 x 1e14
    assert not out.exists()


@pytest.mark.parametrize("args, name", [
    (["bloch", "--sequence", "ramsey", "--tau", 1.0, "--samples", 0], "'samples'"),
    (["bloch", "--sequence", "ramsey", "--tau", "nan"], "'tau'"),
    # delta * tau overflowed: bloch wrote NaN with exit 0
    (["bloch", "--sequence", "hahn_ramsey", "--theta", 0.6, "--delta", 1e12,
      "--tau", 1e300, "--samples", 3], "'tau'"),
    (["components", "--theta-count", -1], "'theta_count'"),
    (["components", "--theta-count", 0], "'theta_count'"),
    # grids of 1e20 points raised numpy's size error, exit 3
    (["components", "--theta-count", 10 ** 20], "'theta_count'"),
    (["bloch", "--sequence", "ramsey", "--tau", 1.0, "--samples", 10 ** 20],
     "'samples'"),
    (["simulate", "--theta", 0.5, "--tau-count", 10 ** 20], "'tau_count'"),
    (["sensitivity", "--lam", 2.5, "--gamma", 0.0], "'gamma'"),
    (["sensitivity", "--lam", 2.5, "--gamma", 0.6, "--u", 0.5], "'u'"),
    (["sensitivity", "--lam", 2.5, "--gamma", 0.6, "--gamma-e", 0], "'gamma_e'"),
    # the flag was ignored: every sequence got the detuned echo's report
    (["sensitivity", "--lam", 2.5, "--gamma", 0.6283, "--sequence", "ramsey"],
     "'sequence'"),
    # wrote "eta": Infinity, and eta 0.0 beside a field floor of 2.7e-156
    (["sensitivity", "--lam", 2.5, "--gamma", 0.6283, "--gamma-e", 1e-320], "'gamma_e'"),
    (["sensitivity", "--lam", 2.5, "--gamma", 0.6283, "--u", 1e308, "--v", 1e307],
     "'u'"),
    # exit 3: u / 2 and gamma^2 underflowed to 0, and a fringe at a tilt
    # of 1e-9 (given, or from rabi and delta) was too flat to fit
    (["sensitivity", "--lam", 2.5, "--gamma", 0.6283, "--u", 5e-324, "--v", 0], "'u'"),
    (["sensitivity", "--lam", 2.5, "--gamma", 1e-200], "'gamma'"),
    (["sensitivity", "--lam", 2.5, "--gamma", 0.6283, "--theta", 1e-9], "'theta'"),
    (["sensitivity", "--lam", 2.5, "--gamma", 0.6283, "--rabi", 1, "--delta", 1e9],
     "'rabi'"),
    # a resonant tilt, given or from rabi and delta: exit 0 with a field floor
    # beside a bias slope of 9e-33
    (["sensitivity", "--lam", 2.5, "--gamma", 0.6283, "--rabi", 1, "--delta", 0],
     "'rabi'"),
    (["sensitivity", "--lam", 2.5, "--gamma", 0.6283, "--theta", 1.5707963267948963],
     "'theta'"),
    # out of range: these overflowed to exit 3 or wrote NaN with exit 0
    (["simulate", "--gamma=1e300"], "'gamma'"),
    (["simulate", "--delta=1.7e308"], "'delta'"),
    (["simulate", "--lam=1e-300", "--gamma=0.6"], "'lam'"),
    # the closed forms and the models built on them assume Gaussian noise
    (["sensitivity", "--lam", 2.5, "--gamma", 0.6, "--noise-kind", "renewal"],
     "'noise_kind'"),
    (["simulate", "--theta", 0.6, "--gamma", 0.6, "--noise-kind", "renewal",
      "--engine", "analytic"], "'noise_kind'"),
    # one trajectory has no stderr: the compare CSV wrote z-scores of inf
    (["simulate", "--theta", 0.6283, "--gamma", 0.6, "--engine", "both",
      "--n-trajectories", 1], "'n_trajectories'"),
    # finite pulses of area/rabi: an infinite duration wrote NaN with exit 0,
    # and a step count past float range raised OverflowError, exit 3
    (["simulate", "--theta", 0.6283, "--engine", "montecarlo", "--pulse-model",
      "finite", "--rabi=5e-324", "--n-trajectories", 4], "'rabi'"),
    (["simulate", "--theta", 0.6283, "--gamma", 0.6, "--engine", "montecarlo",
      "--pulse-model", "finite", "--rabi", 6.283, "--time-step=1e-320",
      "--n-trajectories", 4], "'rabi'"),
])
def test_bad_command_option_exits_2(args, name, tmp_path, capsys):
    assert run([*args, "--out", tmp_path / "o"]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, message", [
    (["simulate", "--time-step", 0], "'time_step': must lie in (0, 1e+12], got 0.0"),
    (["simulate", "--theta", 2], "'theta': must lie in (0, 1.5707963267948966], got 2.0"),
    (["simulate", "--n-trajectories", 0], "'n_trajectories': must lie in [1, inf), got 0"),
    (["bloch", "--tau", 1, "--samples", 0], "'samples': must lie in [1, 1e+06], got 0"),
    (["fit", "--data", "x.csv", "--tau-scale", "inf"],
     "'tau_scale': must lie in (0, inf), got inf"),
])
def test_range_errors_name_the_field_its_range_and_the_value(args, message, tmp_path,
                                                             capsys):
    # one form for every bound, in which a strict bound reads strict
    assert run([*args, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == f"error: config field {message}\n"


def test_scan_with_renewal_noise_exits_2(tmp_path, capsys):
    data = _write_ramsey_data(tmp_path / "ram.csv")
    out = tmp_path / "o"
    assert run([*_SCAN, "--gamma", 0.6, "--noise-kind", "renewal",
                "--data", data, "--out", out]) == 2
    assert "'noise_kind'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, warned", [("renewal", True), ("ou", False)])
def test_renewal_compare_warns_the_closed_form_is_gaussian(kind, warned, tmp_path):
    assert run(["simulate", *BASE, "--noise-kind", kind, "--engine", "both",
                "--n-trajectories", 200, "--out", tmp_path]) == 0
    lines = (tmp_path / "hahn_ramsey_compare.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    if warned:
        assert lines[1].startswith("# warning: ")
        assert "Gaussian" in lines[1] and "not a correctness gate" in lines[1]
        assert lines[2] == "tau,analytic,mc_mean,mc_stderr,zscore"
    else:
        assert lines[1] == "tau,analytic,mc_mean,mc_stderr,zscore"


def _stamp(path):
    """The config_sha256 of a CSV header or a JSON report."""
    if path.suffix == ".json":
        return json.loads(path.read_text())["config_sha256"]
    return re.match(r"# config_sha256=(\w+)\n", path.read_text())[1]


def test_the_config_hash_identifies_the_run(tmp_path, capsys):
    data = _write_ramsey_data(tmp_path / "ram.csv")
    copy = tmp_path / "copy" / "ram.csv"
    copy.parent.mkdir()
    copy.write_bytes(data.read_bytes())
    # the same path and size, one signal value changed
    edited = tmp_path / "edited" / "ram.csv"
    edited.parent.mkdir()
    lines = data.read_text().splitlines(keepends=True)
    lines[5] = lines[5].split(",")[0] + ",0.5\n"
    edited.write_text("".join(lines))
    # every input of scan and bloch: the two commands run on one config
    both = [*_SCAN[1:], "--tau", 1.0]
    runs = {
        "scan": (["scan", *both, "--data", data], "scan_ram.csv"),
        "scan again": (["scan", *both, "--data", data], "scan_ram.csv"),
        "scan, 21 lambdas": (["scan", *both, "--lambda-count", 21, "--data", data],
                             "scan_ram.csv"),
        "scan, 3 workers": (["scan", *both, "--workers", 3, "--data", data],
                            "scan_ram.csv"),
        "scan of the copy": (["scan", *both, "--data", copy], "scan_ram.csv"),
        "scan of the edit": (["scan", *both, "--data", edited], "scan_ram.csv"),
        "bloch": (["bloch", *both, "--data", data], "bloch_ramsey.csv"),
        "bloch, 50 samples": (["bloch", *both, "--data", data, "--samples", 50],
                              "bloch_ramsey.csv"),
        "simulate": (["simulate", *BASE], "hahn_ramsey_analytic.csv"),
        "simulate with components": (["simulate", *BASE, "--with-components"],
                                     "hahn_ramsey_analytic.csv"),
        "fit": (["fit", "--data", data], "fit_ram.json"),
        "fit exponential": (["fit", "--data", data, "--model", "exponential"],
                            "fit_ram.json"),
        "fit of the copy": (["fit", "--data", copy], "fit_ram.json"),
        "fit of the edit": (["fit", "--data", edited], "fit_ram.json"),
    }
    stamps = {}
    for i, (name, (args, written)) in enumerate(runs.items()):
        assert run([*args, "--out", tmp_path / f"o{i}"]) == 0, name
        stamps[name] = _stamp(tmp_path / f"o{i}" / written)
    capsys.readouterr()
    for a, b in [("scan", "scan, 21 lambdas"), ("bloch", "bloch, 50 samples"),
                 ("simulate", "simulate with components"), ("scan", "bloch"),
                 ("fit", "fit exponential"), ("scan", "scan of the edit"),
                 ("fit", "fit of the edit")]:
        assert stamps[a] != stamps[b], (a, b)
    # placement and scheduling do not change the result bytes
    for a, b in [("scan", "scan again"), ("scan", "scan, 3 workers"),
                 ("scan", "scan of the copy"), ("fit", "fit of the copy")]:
        assert stamps[a] == stamps[b], (a, b)


def test_config_hashes_keep_their_values(tmp_path):
    # stamps written before the hash read its fields by getattr; a data
    # file counts by its bytes, not its path
    data = tmp_path / "c.csv"
    data.write_text("tau,signal\n0,1\n1,0.5\n")
    cases = [
        (RunConfig(), "simulate", "5a93fb846933cadd"),
        (RunConfig(sequence="ramsey", delta=1.3, engine="both", n_trajectories=500,
                   seed=9, workers=3), "simulate", "bea8a339e882975d"),
        (RunConfig(pulse_model="finite", rabi=6.283, time_step=0.02,
                   noise_kind="renewal"), "simulate", "f4ed7e30effa2b2f"),
        (RunConfig(data=(str(data),), model="exponential", tau_scale=1e-3), "fit",
         "0885d27c33431998"),
        (RunConfig(data=(str(data),), lambda_min=1.0, lambda_max=4.0, lambda_count=31,
                   gamma_min=0.2, gamma_max=1.2, gamma_count=31), "scan",
         "51793a91209ba8fb"),
        (RunConfig(u=1.3, v=0.7, gamma_e=2.8), "sensitivity", "96cbe32090c8f5ab"),
        (RunConfig(tau=1.0, samples=50, with_components=True, theta_count=7), "bloch",
         "0d20d2769e325a9c"),
    ]
    for cfg, command, want in cases:
        assert config_hash(cfg, command) == want, command


@pytest.mark.parametrize("command", ["fit", "scan", "bloch"])
@pytest.mark.parametrize("missing", [True, False], ids=["missing", "a directory"])
def test_a_data_file_that_cannot_be_read_exits_2(command, missing, tmp_path, capsys):
    # the config hash reads every data file before the command runs
    data = tmp_path / ("nope.csv" if missing else "dir.csv")
    if not missing:
        data.mkdir()
    args = {"fit": ["fit"], "scan": _SCAN, "bloch": ["bloch", "--tau", 1.0]}[command]
    out = tmp_path / "o"
    assert run([*args, "--data", data, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "'data'" in err and data.name in err
    assert not out.exists()


def test_freq_unit_cycles_converts_the_scan_gamma_grid(tmp_path, capsys):
    data = _write_ramsey_data(tmp_path / "ram.csv")     # gamma 0.6 rad/us
    grid = ["--lambda-min", 1.5, "--lambda-max", 3.5, "--lambda-count", 5,
            "--gamma-count", 2, "--data", data]
    delta = 1.885 / (2 * math.pi)                        # in cycles/us
    assert run(["scan", "--sequence", "ramsey", *grid, "--freq-unit", "cycles",
                "--delta", delta, "--gamma-min", 0.1, "--gamma-max", 0.2,
                "--out", tmp_path / "cycles"]) == 0
    cycles = capsys.readouterr().out
    assert run(["scan", "--sequence", "ramsey", *grid, "--delta", 2 * math.pi * delta,
                "--gamma-min", 2 * math.pi * 0.1, "--gamma-max", 2 * math.pi * 0.2,
                "--out", tmp_path / "rad"]) == 0
    rad = capsys.readouterr().out
    rows = [read_rows(tmp_path / unit / "scan_ram.csv")[1] for unit in ("cycles", "rad")]
    assert rows[0].tobytes() == rows[1].tobytes()
    argmin = [text.split(" argmin ")[1] for text in (cycles, rad)]
    assert argmin[0] == argmin[1] and argmin[0].endswith(" gamma=0.628319\n")


@pytest.mark.parametrize("route", ["flag", "env", "config"])
def test_every_route_sets_a_command_input(route, tmp_path, monkeypatch):
    args = ["bloch", "--sequence", "ramsey", "--delta", 1.0, "--tau", 1.0]
    assert run([*args, "--samples", 5, "--out", tmp_path / "want"]) == 0
    if route == "flag":
        args += ["--samples", 5]
    elif route == "env":
        monkeypatch.setenv("HRSIM_SAMPLES", "5")
    else:
        (tmp_path / "cfg.json").write_text('{"samples": 5}')
        args += ["--config", tmp_path / "cfg.json"]
    assert run([*args, "--out", tmp_path / "got"]) == 0
    assert (tmp_path / "got" / "bloch_ramsey.csv").read_bytes() == \
        (tmp_path / "want" / "bloch_ramsey.csv").read_bytes()


@pytest.mark.parametrize("env, config, args, message", [
    # the variable was ignored: exit 0 with 60 samples
    ({"HRSIM_SAMPLES": "0"}, None, ["bloch", "--tau", 1.0], "'samples': must lie in"),
    # the key was refused as unknown
    ({}, {"u": 0.1}, ["sensitivity", "--lam", 2.5, "--gamma", 0.6], "'u': must lie in"),
    # argparse's usage error
    ({}, None, ["simulate", "--theta", "abc"], "'theta': cannot parse value 'abc'"),
    # the last file was fitted, exit 0
    ({}, None, ["fit"], "'data': fit reads one data file, got 2"),
])
def test_every_route_to_an_input_refuses_bad_values(env, config, args, message,
                                                    tmp_path, monkeypatch, capsys):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        args = [*args, "--config", tmp_path / "cfg.json"]
    if args == ["fit"]:
        for name in ("a.csv", "b.csv"):
            args += ["--data", _write_ramsey_data(tmp_path / name)]
    assert run([*args, "--out", tmp_path / "o"]) == 2
    assert f"error: config field {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("engine", ["montecarlo", "both"])
def test_tau_points_beyond_their_fixed_monte_carlo_cost_exit_2(engine, tmp_path,
                                                                capsys):
    # every tau point costs about MC_POINT_COST trajectory points whatever
    # the trajectory count: 1e6 of them at 4 trajectories ran for minutes
    with mock.patch("hahnramsey.montecarlo.run_mc",
                    side_effect=AssertionError("the run started")):
        assert run(["simulate", "--engine", engine, "--theta", 0.6283,
                    "--lam", 2.5, "--gamma", 0.6283, "--n-trajectories", 4,
                    "--tau-count", 10 ** 6, "--out", tmp_path / "o"]) == 2
    assert "config field 'tau_count'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("counts, field", [
    (["--n-trajectories", 4, "--tau-count", 1000], "tau_count"),
    (["--n-trajectories", 100_000, "--tau-count", 2], "n_trajectories")])
def test_noisy_finite_pulse_steps_count_into_the_monte_carlo_bound(
        counts, field, tmp_path, capsys):
    # each of the 7096 noisy pulse steps of a tau point is one more pass of
    # the Python loop, 0.37 s a point at 4 trajectories: the bound on
    # instantaneous pulses let 499750 points through, about two days
    args = ["simulate", "--engine", "montecarlo", "--pulse-model", "finite",
            "--rabi", 0.05, "--lam", 2.5, "--gamma", 0.6, "--theta", 0.6,
            "--delta", 1, "--out", tmp_path / "o"]
    with mock.patch("hahnramsey.montecarlo.run_mc",
                    side_effect=AssertionError("the run started")):
        assert run([*args, *counts]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # the most points of 4 trajectories that the constants price within the
    # bound pass, and one more exits 2: tau_count is named when no count of
    # trajectories fits that many points, else n_trajectories
    steps = montecarlo._plan(SequenceKind.HAHN_RAMSEY, 0.6, 1.0, NoiseParams(2.5, 0.6),
                             1.0, 0.05)[1]
    assert steps == 7096
    fixed = cli.MC_POINT_COST + steps * cli.MC_STEP_COST
    largest = MAX_TRAJECTORY_POINTS // (fixed + 4 * (1 + steps))
    cfg = RunConfig(sequence="hahn_ramsey", engine="montecarlo", pulse_model="finite",
                    rabi=0.05, lam=2.5, gamma=0.6, theta=0.6, delta=1.0,
                    n_trajectories=4, tau_count=largest)
    cfg.validate("simulate")
    over = ("tau_count" if largest + 1 > MAX_TRAJECTORY_POINTS // (fixed + 1 + steps)
            else "n_trajectories")
    with mock.patch("hahnramsey.montecarlo.run_mc",
                    side_effect=AssertionError("the run started")):
        assert run([*args, "--n-trajectories", 4, "--tau-count", largest + 1]) == 2
    assert f"config field '{over}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # the same counts pass with instantaneous or noiseless pulses
    cfg.n_trajectories, cfg.tau_count = counts[1], counts[3]
    for model, gamma in (("instantaneous", 0.6), ("finite", 0.0)):
        cfg.pulse_model, cfg.gamma = model, gamma
        cfg.validate("simulate")


def test_renewal_events_count_into_the_monte_carlo_bound(tmp_path, capsys):
    # 1e4 expected events a trajectory at each of 1000 tau points of 990000
    # trajectories, one event-loop pass each: about a day; the bound once
    # priced it as OU sampling
    out = tmp_path / "o"
    args = ["simulate", "--sequence", "hahn_ramsey", "--theta", 0.6, "--delta", 1,
            "--noise-kind", "renewal", "--lam", 1000, "--gamma", 0.628,
            "--engine", "montecarlo", "--tau-stop", 5, "--tau-count", 1000,
            "--n-trajectories", 990000, "--out", out]
    with mock.patch("hahnramsey.montecarlo.run_mc",
                    side_effect=AssertionError("the run started")):
        assert run(args) == 2
    err = capsys.readouterr().err
    assert "config field 'tau_count'" in err and "lower lam or tau_stop" in err
    assert not out.exists()
    # OU noise draws no events, so the same counts are within the bound
    cfg = RunConfig(sequence="hahn_ramsey", theta=0.6, delta=1.0, noise_kind="ou",
                    lam=1000.0, gamma=0.628, engine="montecarlo", tau_stop=5.0,
                    tau_count=1000, n_trajectories=990000)
    cfg.validate("simulate")


def _n_trajectories_bound(**fields):
    """The largest n_trajectories that validate admits at 10 tau points."""
    cfg = RunConfig(sequence="hahn_ramsey", theta=0.6, delta=1.0, lam=50.0,
                    gamma=0.6, engine="montecarlo", tau_stop=5.0, tau_count=10,
                    n_trajectories=10 ** 20, **fields)
    with pytest.raises(cli.ConfigError, match="'n_trajectories'") as refused:
        cfg.validate("simulate")
    return float(re.search(r"must lie in \[1, ([^\]]+)\]", str(refused.value))[1])


def test_finite_pulses_under_renewal_noise_count_steps_and_events():
    ou = _n_trajectories_bound()
    renewal = _n_trajectories_bound(noise_kind="renewal")
    finite = _n_trajectories_bound(pulse_model="finite", rabi=2.0)
    both = _n_trajectories_bound(noise_kind="renewal", pulse_model="finite", rabi=2.0)
    assert 0 < both < min(renewal, finite) and max(renewal, finite) < ou


def test_every_command_takes_every_field(capsys):
    fields = [f.name for f in dataclasses.fields(RunConfig)]
    for command in ("simulate", "components", "fit", "scan", "sensitivity", "bloch"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        for name in fields:
            assert f"--{name.replace('_', '-')} " in text, (command, name)


def test_the_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    data = [_write_ramsey_data(tmp_path / f"d{i}.csv") for i in range(2)]
    sim = ["simulate", *BASE, "--engine", "analytic"]
    assert run([*sim, "--out", tmp_path / "first"]) == 0
    with mock.patch("argparse.ArgumentParser",
                    side_effect=AssertionError("parser rebuilt")):
        assert run([*_SCAN, "--data", data[0], "--data", data[1],
                    "--out", tmp_path / "two"]) == 0
        # action="append" must start from an empty list on every call
        assert run([*_SCAN, "--data", data[1], "--out", tmp_path / "one"]) == 0
        assert sorted(p.name for p in (tmp_path / "one").iterdir()) == ["scan_d1.csv"]
        # rejected calls: by argparse, then by the configuration
        with pytest.raises(SystemExit):
            run([*sim, "--engine", "bogus", "--out", tmp_path / "x"])
        assert run([*sim, "--tau-count", 1, "--out", tmp_path / "y"]) == 2
        assert run([*sim, "--out", tmp_path / "again"]) == 0
    capsys.readouterr()
    name = "hahn_ramsey_analytic.csv"
    assert (tmp_path / "again" / name).read_bytes() == \
        (tmp_path / "first" / name).read_bytes()
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()


def _fit_report(tmp_path, data, scale):
    out = tmp_path / f"out{scale:g}"
    assert run(["fit", "--data", data, "--tau-scale", repr(scale),
                "--out", out]) == 0
    return json.loads((out / f"fit_{data.stem}.json").read_text())


@pytest.mark.parametrize("scale", [1e-300, 1e-6, 1e6, 1e290, 1e306])
def test_fit_tau_scale_converts_the_fit_in_the_file_unit(tmp_path, scale):
    data = _write_ramsey_data(tmp_path / "ram.csv")
    base = _fit_report(tmp_path, data, 1.0)
    rep = _fit_report(tmp_path, data, scale)
    assert all(math.isfinite(v) for v in rep.values() if isinstance(v, float))
    assert rep["tau_c_err"] > 0
    assert rep["tau_c"] / scale == pytest.approx(base["tau_c"], rel=1e-12, abs=0)
    assert rep["tau_c_err"] / scale == pytest.approx(base["tau_c_err"], rel=1e-12, abs=0)
    assert rep["frequency"] * scale == pytest.approx(base["frequency"], rel=1e-12, abs=0)
    for key in ("amplitude", "offset", "phase", "residual_norm"):
        assert rep[key] == base[key]


def test_fit_tau_scale_beyond_float_range_exits_2(tmp_path, capsys):
    data = _write_ramsey_data(tmp_path / "ram.csv")
    assert run(["fit", "--data", data, "--tau-scale", 1e308,
                "--out", tmp_path / "out"]) == 2
    assert "'tau_scale'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "fit_ram.json").exists()


def test_fit_rejects_bad_tau_scale(tmp_path, capsys):
    data = _write_ramsey_data(tmp_path / "ram.csv")
    assert run(["fit", "--data", data, "--tau-scale", 0,
                "--out", tmp_path]) == 2
    assert "'tau_scale'" in capsys.readouterr().err


def _write_fringe(path, rows):
    """The noisy tau_c 5, w 4 fringe at taus 0..12 with its stderr column,
    written in the given order of its 121 rows (indices may repeat)."""
    t = np.linspace(0.0, 12.0, 121)
    y = (0.8 * np.cos(4 * t) * np.exp(-((t / 5) ** 2))
         + np.random.default_rng(3).normal(0.0, 0.01, t.size))
    with open(path, "w") as fh:
        fh.write("tau,signal,stderr\n")
        for i in rows:
            fh.write(f"{t[i]:.17g},{y[i]:.17g},0.01\n")
    return path


def _fit_json(tmp_path, data):
    """The fit report of a data file, less its path and the config stamp,
    which hashes the file's bytes."""
    out = tmp_path / f"out_{data.stem}"
    assert run(["fit", "--data", data, "--out", out]) == 0
    report = json.loads((out / f"fit_{data.stem}.json").read_text())
    assert report.pop("data") == str(data)
    del report["config_sha256"]
    return report


@pytest.mark.parametrize("order", ["descending", "shuffled"])
def test_fit_reads_rows_in_any_order(order, tmp_path):
    # the fit read its points in file order: these descending rows exited 3
    # (LinAlgError), the shuffled ones fitted frequency -12.57 and tau_c
    # 0.0012 with exit 0
    rows = (np.arange(120, -1, -1) if order == "descending"
            else np.random.default_rng(5).permutation(121))
    want = _fit_json(tmp_path, _write_fringe(tmp_path / "asc.csv", range(121)))
    got = _fit_json(tmp_path, _write_fringe(tmp_path / f"{order}.csv", rows))
    assert got == want and want["tau_c"] == pytest.approx(5.0, abs=0.1)


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_fit_of_repeated_taus_exits_0(order, tmp_path):
    # each tau twice: the median tau spacing was 0, a ZeroDivisionError
    # in the frequency guess and exit 3
    rows = np.repeat(np.arange(121), 2)
    want = _fit_json(tmp_path, _write_fringe(tmp_path / "asc.csv", range(121)))
    if order == "descending":
        rows = rows[::-1]
    got = _fit_json(tmp_path, _write_fringe(tmp_path / "twice.csv", rows))
    for key in ("tau_c", "frequency", "amplitude", "offset", "phase"):
        assert got[key] == pytest.approx(want[key], rel=1e-9, abs=1e-12), key
    # twice the points at the same stderr: the error falls by sqrt(2)
    assert got["tau_c_err"] == pytest.approx(want["tau_c_err"] / math.sqrt(2), rel=1e-6)


@pytest.mark.parametrize("signal", [
    lambda t: np.cos(t)[:5],                  # fewer than 6 rows
    lambda t: np.full(t.size, 0.25)])         # flat data
def test_fit_unusable_data_exits_2(signal, tmp_path, capsys):
    t = np.linspace(0.1, 6, 20)
    data = tmp_path / "unusable.csv"
    with open(data, "w") as fh:
        fh.write("tau,signal\n")
        for ti, yi in zip(t, signal(t)):
            fh.write(f"{ti},{yi}\n")
    out = tmp_path / "o"
    assert run(["fit", "--data", data, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "'data'" in err and "unusable.csv" in err
    assert not out.exists()


# --------------------------------------------------------------------------
# property: any flag, HRSIM_* or --config value of any input either runs
# clean or exits 2 naming it

_ODD_FLOATS = st.one_of(
    st.floats(-10.0, 10.0), st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-13, 1e-9, 1e-6, -1e-6,
                     1e6, 1e9, 1e13, 1e300, -1e300, 1.7e308,
                     math.inf, -math.inf, math.nan,
                     math.nextafter(math.pi / 2, 0.0)]))   # resonant to 1 ulp
# counts also take what a file or the environment can hold
_ODD_COUNTS = st.one_of(st.integers(-2, 4), st.just(10 ** 20),
                        st.sampled_from([2.5, math.inf]))
# a valid base run; generated values replace some of these, and the drawn
# sequence replaces hahn_ramsey
_BASE_FIELDS = {"sequence": "hahn_ramsey", "theta": 0.6283, "delta": 1.885,
                "lam": 2.5, "gamma": 0.6283, "tau_start": 0.0, "tau_stop": 2.0,
                "tau_count": 3}
_FIELD_VALUES = {"theta": _ODD_FLOATS, "rabi": _ODD_FLOATS, "delta": _ODD_FLOATS,
                 "lam": _ODD_FLOATS, "gamma": _ODD_FLOATS,
                 "tau_start": _ODD_FLOATS, "tau_stop": _ODD_FLOATS,
                 "tau_count": _ODD_COUNTS}
# per command: its own inputs; "montecarlo" is simulate --engine montecarlo
# or both with instantaneous pulses, which always sets the fields of
# _MC_FIELDS; "finite" is simulate --pulse-model finite with --engine
# montecarlo or both, which sets those and the fields of _FINITE_FIELDS as
# well; "scan" and "fit" read a generated data file (_write_data); "bloch"
# always gets a tau, 1.0 unless drawn
_COMMAND_FIELDS = {
    "simulate": {},
    "montecarlo": {},
    "finite": {},
    "components": {"theta_count": _ODD_COUNTS},
    "sensitivity": {"u": _ODD_FLOATS, "v": _ODD_FLOATS, "gamma_e": _ODD_FLOATS},
    "scan": {"lambda_min": _ODD_FLOATS, "lambda_max": _ODD_FLOATS,
             "lambda_count": _ODD_COUNTS, "gamma_min": _ODD_FLOATS,
             "gamma_max": _ODD_FLOATS, "gamma_count": _ODD_COUNTS},
    "fit": {"tau_scale": _ODD_FLOATS},
    "bloch": {"tau": _ODD_FLOATS, "samples": _ODD_COUNTS}}
# huge n_trajectories exit 2 through MAX_TRAJECTORY_POINTS
_MC_FIELDS = {"n_trajectories": st.one_of(
                  st.integers(-2, 16),
                  st.sampled_from([2.5, math.inf, 10 ** 9, 10 ** 20])),
              "noise_kind": st.sampled_from(["ou", "renewal", "none"])}
_FINITE_FIELDS = {"rabi": _ODD_FLOATS, "time_step": _ODD_FLOATS}
_COMMAND_BASE = {"scan": {"lambda_min": 1.5, "lambda_max": 3.5, "lambda_count": 2,
                          "gamma_min": 0.3, "gamma_max": 1.0, "gamma_count": 2},
                 "bloch": {"tau": 1.0}}


def _write_data(data, path):
    """A generated data file for fit and scan: 0 to 130 taus of a noisy
    tau_c 4, w 2 fringe on 0..12 times a magnitude from 1e-6 to 1e300,
    each measured 1 to 3 times, the rows in ascending, descending or
    shuffled tau order, with or without a stderr column."""
    taus = data.draw(st.integers(0, 130), label="taus")
    repeats = data.draw(st.integers(1, 3), label="rows per tau")
    order = data.draw(st.sampled_from(["ascending", "descending", "shuffled"]),
                      label="row order")
    magnitude = data.draw(st.floats(-6.0, 300.0), label="log10 tau magnitude")
    with_err = data.draw(st.booleans(), label="stderr column")
    x = np.repeat(np.linspace(0.0, 12.0, taus), repeats)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="noise seed"))
    y = 0.8 * np.cos(2 * x) * np.exp(-((x / 4) ** 2)) + rng.normal(0.0, 0.01, x.size)
    if order != "ascending":
        rows = np.arange(x.size)[::-1] if order == "descending" else rng.permutation(x.size)
        x, y = x[rows], y[rows]
    with open(path, "w") as fh:
        fh.write("tau,signal,stderr\n" if with_err else "tau,signal\n")
        for xi, yi in zip(x * 10.0 ** magnitude, y):
            fh.write(f"{xi:.17g},{yi:.17g},0.01\n" if with_err else f"{xi:.17g},{yi:.17g}\n")
    return path


def _only_finite_numbers(path):
    text = path.read_text()
    if path.suffix == ".json":
        values = [v for v in json.loads(text).values()
                  if isinstance(v, (int, float))]
    else:
        rows = [line for line in text.splitlines() if not line.startswith("#")]
        values = [float(c) for line in rows[1:] for c in line.split(",")]
    return all(map(math.isfinite, values))


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_any_flag_or_env_value_runs_clean_or_exits_2(data):
    command = data.draw(st.sampled_from(sorted(_COMMAND_FIELDS)))
    fields = data.draw(st.lists(st.sampled_from(sorted(_FIELD_VALUES)),
                                max_size=2, unique=True))
    fields = {k: data.draw(_FIELD_VALUES[k], label=k) for k in fields}
    own = _COMMAND_FIELDS[command]
    fields.update({k: data.draw(v, label=k) for k, v in own.items()
                   if data.draw(st.booleans(), label=f"set {k}")})
    if command in ("montecarlo", "finite"):
        fields.update({k: data.draw(v, label=k) for k, v in _MC_FIELDS.items()})
    if command == "finite":
        fields.update({k: data.draw(v, label=k) for k, v in _FINITE_FIELDS.items()})
    source = {k: data.draw(st.sampled_from(["flag", "env", "config"]),
                           label=f"source of {k}") for k in fields}
    # sensitivity refuses the other sequences before it runs
    sequences = (["hahn_ramsey"] if command == "sensitivity"
                 else [k.value for k in SequenceKind])
    sequence = data.draw(st.sampled_from(sequences), label="sequence")
    base = {**_BASE_FIELDS, "sequence": sequence, **_COMMAND_BASE.get(command, {})}
    if sequence != "hahn_ramsey":
        base.pop("theta")       # ramsey and hahn_echo default to pi/2
    if sequence == "hahn_echo" and data.draw(st.booleans(), label="echo at delta 0"):
        base["delta"] = 0.0
    cfg = {**base, **fields}
    env = {f"HRSIM_{k.upper()}": str(v) for k, v in cfg.items()
           if source.get(k) == "env"}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        engine = {"simulate": "analytic"}.get(command)
        if command in ("montecarlo", "finite"):
            engine = data.draw(st.sampled_from(["montecarlo", "both"]), label="engine")
        args = ["simulate" if engine else command, "--out", str(out)]
        args += [f"--{k.replace('_', '-')}={v}" for k, v in cfg.items()
                 if source.get(k, "flag") == "flag"]
        from_file = {k: v for k, v in cfg.items() if source.get(k) == "config"}
        if from_file:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(from_file))
            args += ["--config", str(path)]
        if engine:
            args += ["--engine", engine]
        if command == "finite":
            args += ["--pulse-model", "finite"]
        if command in ("scan", "fit"):
            args += ["--data", str(_write_data(data, Path(tmp) / "fringe.csv"))]
        err = io.StringIO()
        with mock.patch.dict(os.environ, env), redirect_stderr(err), \
                redirect_stdout(io.StringIO()):
            rc = main(args)
        if rc == 0:
            written = sorted(out.iterdir())
            assert written and all(map(_only_finite_numbers, written))
        else:
            assert rc == 2, err.getvalue()
            named = re.search(r"config field '([^']+)'", err.getvalue())
            known = {*_FIELD_VALUES, *_BASE_FIELDS, *_MC_FIELDS, *_FINITE_FIELDS,
                     *own, "data"}
            assert named and set(named[1].split(", ")) <= known, err.getvalue()
            assert not out.exists()
