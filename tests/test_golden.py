"""Golden outputs: bundled configs reproduce the committed ``out/`` CSVs.

Only the ``#`` comment lines may differ (they echo the effective config,
including the output directory). Any change to a data row has to be a
deliberate regeneration of ``out/``.
"""

from pathlib import Path

import pytest

from memdecide.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _data_lines(path: Path) -> list[bytes]:
    return [line for line in path.read_bytes().splitlines(keepends=True)
            if not line.startswith(b"#")]


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
def test_data_rows_match_committed_output(tmp_path, command, config, csv_name):
    golden = _data_lines(ROOT / "out" / config / csv_name)
    assert main([command, "--config", str(ROOT / "configs" / f"{config}.cfg"),
                 "--out", str(tmp_path)]) == 0
    assert _data_lines(tmp_path / csv_name) == golden
