"""Smoke test: each experiment script in scripts/ runs at a tiny size and
writes its files."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, expect", [
    ("bloch_families.py", [], "theta_0.20pi/bloch_hahn_ramsey.csv"),
    ("filter_components.py", [], "component_weights.csv"),
    ("sequence_comparison.py", ["--n-trajectories", "20"],
     "hahn_ramsey_compare.csv"),
])
def test_script_runs(script, args, expect, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script, "--out", str(tmp_path), *args])
    try:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0
    assert (tmp_path / expect).is_file()
    assert str(tmp_path) in capsys.readouterr().out
