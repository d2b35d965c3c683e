"""Golden outputs: bundled configs reproduce the committed ``out/`` files.

Each config runs from an empty working directory with the flags its committed
CSV header records, so its relative ``out_dir`` lands where the header says.
Every file of the committed ``out/<name>/`` directory is then compared byte
for byte: CSVs with their ``#`` comment lines, SVG charts and the calibrated
``deck.json``. Any change to one of them has to be a deliberate regeneration
of ``out/``.
"""

from pathlib import Path

import pytest

from memdecide.cli import main

ROOT = Path(__file__).resolve().parent.parent

# The flags each command's committed outputs were made with, as their headers
# record them ("svg":true, "threads":4).
FLAGS = {"trace": ["--svg"], "sweep": ["--svg", "--threads", "4"], "calibrate": []}


def _assert_reproduces(tmp_path, monkeypatch, command: str, config: str, out_name: str) -> None:
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", str(ROOT / "configs" / f"{config}.cfg"), *FLAGS[command]]) == 0
    golden = ROOT / "out" / out_name
    written = tmp_path / "out" / out_name
    assert sorted(p.name for p in written.iterdir()) == sorted(p.name for p in golden.iterdir())
    for path in golden.iterdir():
        assert (written / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize(
    "command,config,csv_name",
    [
        ("trace", "fig2b", "trace.csv"),
        ("trace", "fig2c", "trace.csv"),
        ("sweep", "fig3c", "report.csv"),
        ("sweep", "fig3d", "report.csv"),
        ("sweep", "fig3e", "report.csv"),
        ("sweep", "fig3f", "report.csv"),
    ],
)
def test_data_rows_match_committed_output(tmp_path, monkeypatch, command, config, csv_name):
    # The whole files, header and chart included, not only the data rows.
    _assert_reproduces(tmp_path, monkeypatch, command, config, config)
    assert (tmp_path / "out" / config / csv_name).is_file()


def test_calibration_matches_committed_output(tmp_path, monkeypatch):
    _assert_reproduces(tmp_path, monkeypatch, "calibrate", "calibrate_example", "calibration")
