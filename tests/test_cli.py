import json

import numpy as np
import pytest

from hahnramsey.analytic import hahn_ramsey_signal, ramsey_signal
from hahnramsey.cli import main, read_curve_csv
from hahnramsey.noise import NoiseParams, FilterKind, chi_filter, f1, delta_f


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
    ref = hahn_ramsey_signal(0.2 * np.pi, 1.885, NoiseParams(2.5, 0.6283),
                             rows[:, 0])
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


def test_components(tmp_path):
    assert run(["components", "--lam", 2.5, "--gamma", 0.6283,
                "--tau-start", 0, "--tau-stop", 2, "--tau-count", 9,
                "--theta-count", 10, "--out", tmp_path]) == 0
    _, exps = read_rows(tmp_path / "filter_exponents.csv")
    assert np.allclose(exps[0, 1:], 0.0)   # tau = 0 row
    p = NoiseParams(2.5, 0.6283)
    for row in exps[1:]:
        tau = row[0]
        expect = [2 * (f1(p, tau) + delta_f(p, tau)), f1(p, tau),
                  2 * (f1(p, tau) - delta_f(p, tau))]
        np.testing.assert_allclose(row[1:], expect, rtol=1e-4)
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


def test_scan_command(tmp_path):
    taus = np.linspace(0.1, 6, 40)
    p = NoiseParams(2.5, 0.6)      # truth on both scan grids
    from hahnramsey.analytic import ramsey_signal
    data = tmp_path / "ram.csv"
    with open(data, "w") as fh:
        fh.write("tau,signal\n")
        for ti, yi in zip(taus, np.asarray(ramsey_signal(1.885, p, taus))):
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


def test_read_curve_csv_roundtrip(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("# comment\ntau,mean,stderr,n\n0.0,1.0,0.01,500\n"
                    "1.0,0.5,0.02,500\n")
    c = read_curve_csv(path)
    assert c.n == 500
    np.testing.assert_allclose(c.stderrs, [0.01, 0.02])


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


def _write_ramsey_data(path, rows=None):
    taus = np.linspace(0.1, 6, 40)
    y = np.asarray(ramsey_signal(1.885, NoiseParams(2.5, 0.6), taus))
    with open(path, "w") as fh:
        fh.write("tau,signal\n")
        for ti, yi in zip(taus, y):
            fh.write(f"{ti},{yi}\n")
        for row in rows or ():
            fh.write(row + "\n")
    return path


_SCAN = ["scan", "--sequence", "ramsey", "--delta", 1.885,
         "--lambda-min", 1.5, "--lambda-max", 3.5, "--lambda-count", 5,
         "--gamma-min", 0.3, "--gamma-max", 1.0, "--gamma-count", 8]


@pytest.mark.parametrize("flag, value", [
    ("--lambda-min", "-1"), ("--lambda-min", "0"), ("--lambda-max", "nan"),
    ("--lambda-count", "0"), ("--gamma-min", "-1"), ("--gamma-max", "inf"),
    ("--gamma-count", "-3"),
])
def test_scan_rejects_bad_grid(flag, value, tmp_path, capsys):
    data = _write_ramsey_data(tmp_path / "ram.csv")
    out = tmp_path / "o"
    assert run([*_SCAN, "--data", data, f"{flag}={value}", "--out", out]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_scan_and_simulate_share_the_ramsey_tilt_check(tmp_path, capsys):
    data = _write_ramsey_data(tmp_path / "ram.csv")
    assert run([*_SCAN, "--theta", 0.5, "--data", data,
                "--out", tmp_path / "s"]) == 2
    assert "'theta'" in capsys.readouterr().err
    assert run(["simulate", "--sequence", "ramsey", "--theta", 0.5,
                "--engine", "analytic", "--out", tmp_path / "a"]) == 2
    assert "'theta'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "scan"])
@pytest.mark.parametrize("row", ["1.0,abc", "7.0", "7.0,nan", "inf,0.5"])
def test_bad_data_row_names_file_and_line(command, row, tmp_path, capsys):
    data = _write_ramsey_data(tmp_path / "bad.csv", rows=[row])
    args = (["fit", "--data", data] if command == "fit"
            else [*_SCAN, "--data", data])
    assert run([*args, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "bad.csv line 42" in err       # header, 40 rows, then the bad one


@pytest.mark.parametrize("args, name", [
    (["bloch", "--sequence", "ramsey", "--tau", 1.0, "--samples", 0], "--samples"),
    (["bloch", "--sequence", "ramsey", "--tau", "nan"], "--tau"),
    (["components", "--theta-count", -1], "--theta-count"),
    (["components", "--theta-count", 0], "--theta-count"),
    (["sensitivity", "--lam", 2.5, "--gamma", 0.0], "'gamma'"),
    (["sensitivity", "--lam", 2.5, "--gamma", 0.6, "--u", 0.5], "--u"),
    (["sensitivity", "--lam", 2.5, "--gamma", 0.6, "--gamma-e", 0], "--gamma-e"),
])
def test_bad_command_option_exits_2(args, name, tmp_path, capsys):
    assert run([*args, "--out", tmp_path / "o"]) == 2
    assert name in capsys.readouterr().err


def test_fit_rejects_bad_tau_scale(tmp_path, capsys):
    data = _write_ramsey_data(tmp_path / "ram.csv")
    assert run(["fit", "--data", data, "--tau-scale", 0,
                "--out", tmp_path]) == 2
    assert "--tau-scale" in capsys.readouterr().err
