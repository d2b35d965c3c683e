"""Smoke test: demos run end to end against the current package API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script,expected",
    [
        ("01_single_cell.py", "after the train:"),
        ("02_synapse_integration.py", "mean during drive"),
        ("03_decision_trial.py", "no-evidence baseline"),
        ("04_accuracy_sweep.py", "accuracy vs. synapse size"),
        ("05_calibration_roundtrip.py", "accuracy with the fitted deck"),
    ],
    ids=["01_single_cell", "02_synapse_integration", "03_decision_trial",
         "04_accuracy_sweep", "05_calibration_roundtrip"],
)
def test_demo_runs(tmp_path, monkeypatch, capsys, script, expected):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert expected in capsys.readouterr().out
