"""Smoke test: demos and the README library tour run end to end against the current package API."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


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
    if script == "05_calibration_roundtrip.py":
        # Its fixtures are the committed inputs of configs/calibrate_example.cfg.
        for name in ("switching.csv", "retention.csv", "deck.json"):
            written = tmp_path / "out" / "fixtures" / name
            assert written.read_bytes() == (ROOT / "out" / "fixtures" / name).read_bytes(), name


def test_readme_library_tour_runs(tmp_path, monkeypatch, capsys):
    # The README's one python block, run as written, so it cannot name an API
    # that no longer exists.
    (tour,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(tour, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
