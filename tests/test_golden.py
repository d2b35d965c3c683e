"""Golden outputs: bundled configs reproduce the committed ``out/`` files.

Each config runs from an empty working directory with the flags its committed
CSV header records, so its relative ``out_dir`` lands where the header says.
Every file of the committed ``out/<name>/`` directory is then compared byte
for byte: CSVs with their ``#`` comment lines, SVG charts and the calibrated
``deck.json``. Any change to one of them has to be a deliberate regeneration
of ``out/``.

Every config's data rows, the calibrated ``deck.json`` and demo 05's
fixtures are also rerun on numpy's AVX2 code path, as on a CPU without
AVX-512: the bytes are meant to be a function of config and seed alone.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

from memdecide.cli import main

ROOT = Path(__file__).resolve().parent.parent

# The flags each command's committed outputs were made with. Headers record
# "svg":true; "--threads 4" is parsed and ignored, so no header records it.
FLAGS = {"trace": ["--svg"], "trial": [], "sweep": ["--svg", "--threads", "4"], "calibrate": []}


def _assert_reproduces(tmp_path, monkeypatch, command: str, config: str, out_name: str) -> None:
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", str(ROOT / "configs" / f"{config}.cfg"), *FLAGS[command]]) == 0
    golden = ROOT / "out" / out_name
    written = tmp_path / "out" / out_name
    assert sorted(p.name for p in written.iterdir()) == sorted(p.name for p in golden.iterdir())
    for path in golden.iterdir():
        assert (written / path.name).read_bytes() == path.read_bytes(), path.name


# Each simulation config: its command and the CSV it writes to out/<config>/.
SIMULATIONS = [
    ("trace", "fig2b", "trace.csv"),
    ("trace", "fig2c", "trace.csv"),
    ("trial", "trial_example", "trial.csv"),
    ("sweep", "fig3c", "report.csv"),
    ("sweep", "fig3d", "report.csv"),
    ("sweep", "fig3e", "report.csv"),
    ("sweep", "fig3f", "report.csv"),
]


@pytest.mark.parametrize("command,config,csv_name", SIMULATIONS)
def test_data_rows_match_committed_output(tmp_path, monkeypatch, command, config, csv_name):
    # The whole files, header and chart included, not only the data rows.
    _assert_reproduces(tmp_path, monkeypatch, command, config, config)
    assert (tmp_path / "out" / config / csv_name).is_file()


def test_calibration_matches_committed_output(tmp_path, monkeypatch):
    _assert_reproduces(tmp_path, monkeypatch, "calibrate", "calibrate_example", "calibration")


def _data_rows(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"),
                    reason="numpy found no X86_V4, so there is no AVX-512 path to turn off")
def test_trace_rows_match_on_the_avx2_path(tmp_path):
    # numpy dispatches np.exp, and so retention survival, to AVX-512 code on
    # this CPU; with these targets off it takes the AVX2 code, whose last bits
    # differ on a few percent of inputs. Every bundled config is rerun, and
    # demo 05, which writes the calibration fixtures.
    runs = [(command, config, config, csv_name) for command, config, csv_name in SIMULATIONS]
    runs.append(("calibrate", "calibrate_example", "calibration", "calibration.csv"))
    code = (
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "assert not __cpu_features__['X86_V4']\n"
        "import runpy\n"
        "from memdecide.cli import main\n"
        f"runpy.run_path({str(ROOT / 'demos' / '05_calibration_roundtrip.py')!r})\n"
        + "".join(f"assert main([{command!r}, '--config', {str(ROOT / 'configs' / f'{config}.cfg')!r}]) == 0\n"
                  for command, config, _, _ in runs)
    )
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for _, config, out_name, csv_name in runs:
        written, golden = (root / "out" / out_name for root in (tmp_path, ROOT))
        assert _data_rows(written / csv_name) == _data_rows(golden / csv_name), config
    for path in ("calibration/deck.json", "fixtures/switching.csv", "fixtures/retention.csv",
                 "fixtures/deck.json"):
        written, golden = (root / "out" / path for root in (tmp_path, ROOT))
        assert written.read_bytes() == golden.read_bytes(), path


def test_readme_refresh_commands_are_the_golden_runs():
    # The README's commands for regenerating out/ run every config above, with FLAGS.
    readme = (ROOT / "README.md").read_text()
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", readme, re.S) if "memdecide.cli trace" in b]
    runs = []
    for line in block.splitlines():
        loop = re.fullmatch(r"for c in ([\w ]+); do (.*); done", line)
        command, config, flags = re.fullmatch(r"python -m memdecide\.cli (\w+) --config configs/(\S+)\.cfg ?(.*)",
                                              loop[2] if loop else line).groups()
        runs += [(command, config.replace("$c", c), flags.split()) for c in (loop[1].split() if loop else [config])]
    expected = [(command, config) for command, config, _ in SIMULATIONS] + [("calibrate", "calibrate_example")]
    assert [run[:2] for run in runs] == expected
    assert all(flags == FLAGS[command] for command, _, flags in runs)
