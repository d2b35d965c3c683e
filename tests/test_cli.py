"""Command-line front end: schema validation, outputs, exit codes."""

import gc
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from memdecide import (DeviceParams, ParamDeck, RetentionDistribution, SwitchingCurve, TwoAfcConfig,
                       estimate_accuracy, read_deck, run_trials, spawn_rng)
from memdecide import cli
from memdecide.cli import build_parser, main
from memdecide.stream import random_times

ROOT = Path(__file__).resolve().parent.parent


def _write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


def _trace_config(out_dir, **overrides):
    cfg = {
        "seed": 5,
        "out_dir": str(out_dir),
        "trace": {
            "n_devices": 10,
            "p_on": [0.05, 0.2],
            "i_cc_uA": 300.0,
            "pulses": {"n_pulses": 10, "rate_hz": 10.0},
            "sample_rate_hz": 20.0,
            "repeats": 4,
            "tail_s": 0.5,
        },
    }
    cfg.update(overrides)
    return cfg


def _trial_config(out_dir):
    return {
        "seed": 5,
        "out_dir": str(out_dir),
        "trial": {
            "n_devices": 20, "i_cc_uA": 270.0, "p_on": 0.05,
            "duration_s": 2.0, "n_a": 40, "n_b": 20,
            "retention_median_s": 2.0, "sigma_log": 0.5,
        },
    }


def _sweep_config(out_dir, trials=30):
    return {
        "seed": 5,
        "out_dir": str(out_dir),
        "sweep": {
            "durations_s": [0.5, 2.0],
            "ratios": [[4, 2]],
            "device_counts": [5],
            "i_cc_values_uA": [270.0],
            "p_on_values": [0.2],
            "trials": trials,
        },
    }


_CONFIGS = {"trace": _trace_config, "trial": _trial_config, "sweep": _sweep_config}

_TOO_MANY_PULSES = (f"n_pulses={2**60} is too many: a trial chunk's (256, n_pulses) float64 "
                    f"pulse-time matrix would exceed {sys.maxsize} bytes")


def _set(payload, dotted, value):
    *parents, last = dotted.split(".")
    for key in parents:
        payload = payload.setdefault(key, {})
    payload[last] = value


def _src_env():
    """The environment of a child process that imports this checkout's ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _calibration_fixtures(tmp_path, rng):
    curve = SwitchingCurve(0.6, 0.05)
    v = rng.uniform(0.4, 0.8, 800)
    hit = rng.random(800) < curve.probability(v)
    sw = tmp_path / "sw.csv"
    sw.write_text(
        "v_pulse_V,switched\n"
        + "\n".join(f"{float(a)!r},{int(b)}" for a, b in zip(v, hit))
        + "\n"
    )
    ret = tmp_path / "ret.csv"
    rows = []
    for i_cc, median in ((10.0, 0.01), (300.0, 1.0)):
        for s in RetentionDistribution(median, 0.5).sample(rng, 100):
            rows.append(f"{i_cc!r},{float(s)!r}")
    ret.write_text("i_cc_uA,retention_s\n" + "\n".join(rows) + "\n")
    return sw, ret


class TestTrace:
    def test_writes_csv_with_provenance(self, tmp_path):
        cfg = _write_config(tmp_path / "t.cfg", _trace_config(tmp_path / "out"))
        assert main(["trace", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert lines[0].startswith("# command=trace")
        assert lines[1].startswith("# config=")
        assert lines[2] == "# rng_layout=8"
        assert lines[3] == "series,p_on,i_cc_uA,t_s,count_on,current_uA,repeat_mean"
        assert any(line.startswith("p_on=0.2,") for line in lines[3:])

    def test_svg_is_presentational_only(self, tmp_path):
        cfg_plain = _write_config(tmp_path / "a.cfg", _trace_config(tmp_path / "a"))
        cfg_svg = _write_config(tmp_path / "b.cfg", _trace_config(tmp_path / "b"))
        assert main(["trace", "--config", cfg_plain]) == 0
        assert main(["trace", "--config", cfg_svg, "--svg"]) == 0
        svg = (tmp_path / "b" / "trace.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        assert not (tmp_path / "a" / "trace.svg").exists()
        # The CSV bytes must not depend on whether the chart was drawn; only
        # the echoed svg flag in the comment header differs.
        data = lambda p: [
            line for line in (tmp_path / p / "trace.csv").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert data("a") == data("b")

    def test_replay_stream(self, tmp_path):
        replay = tmp_path / "pulses.csv"
        replay.write_text("# duration_s=1.0\nt_s\n0.1\n0.5\n0.9\n")
        payload = _trace_config(tmp_path / "out")
        payload["trace"]["pulses"] = {"replay_csv": str(replay)}
        payload["trace"]["p_on"] = 0.9
        del payload["trace"]["tail_s"]
        cfg = _write_config(tmp_path / "t.cfg", payload)
        assert main(["trace", "--config", cfg]) == 0
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_random_source_is_one_row_of_random_times(self, tmp_path, monkeypatch):
        streams = []
        run_trace_experiment = cli.run_trace_experiment
        monkeypatch.setattr(cli, "run_trace_experiment", lambda n, stream, *args, **kwargs:
                            streams.append(stream) or run_trace_experiment(n, stream, *args, **kwargs))
        payload = _trace_config(tmp_path / "out")
        payload["trace"]["pulses"] = {"random": {"n_pulses": 30, "duration_s": 2.0}}
        assert main(["trace", "--config", _write_config(tmp_path / "t.cfg", payload)]) == 0
        expected = random_times(30, 2.0, 1, spawn_rng(payload["seed"], "trace-stream"))[0]
        assert len(streams) == 2  # one per p_on series, both on the one stream
        for stream in streams:
            assert stream.duration_s == 2.0
            assert np.array_equal(stream.times, expected)

    def test_empty_stream_gives_flat_zero_trace(self, tmp_path):
        payload = _trace_config(tmp_path / "out")
        payload["trace"]["pulses"] = {"n_pulses": 0, "rate_hz": 10.0}
        payload["trace"]["p_on"] = 0.5
        cfg = _write_config(tmp_path / "t.cfg", payload)
        assert main(["trace", "--config", cfg]) == 0
        rows = [
            line.split(",")
            for line in (tmp_path / "out" / "trace.csv").read_text().splitlines()
            if line and not line.startswith(("#", "series"))
        ]
        assert rows
        assert all(row[4] == "0.0" and row[5] == "0.0" for row in rows)


class TestTrial:
    def test_prints_one_row(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "t.cfg", _trial_config(tmp_path / "out"))
        assert main(["trial", "--config", cfg]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert out_lines[0] == "trial,decision,correct,i1_uA,i2_uA,count1,count2,tie"
        fields = out_lines[1].split(",")
        assert fields[0] == "0" and fields[1] in ("A", "B")
        csv_lines = (tmp_path / "out" / "trial.csv").read_text().splitlines()
        assert csv_lines[-1] == out_lines[1]

    def test_module_entry_point_runs_command(self, tmp_path):
        cfg = _write_config(tmp_path / "t.cfg", _trial_config(tmp_path / "out"))
        proc = subprocess.run(
            [sys.executable, "-m", "memdecide.cli", "trial", "--config", cfg],
            env=_src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("trial,decision,")
        assert (tmp_path / "out" / "trial.csv").is_file()

    def test_currents_follow_the_counts(self, tmp_path, capsys):
        # c ON cells carry i_cc each and the other N - c leak i_off each.
        payload = _trial_config(tmp_path / "out")
        payload["device"] = {"v_median_V": 0.6, "v_spread_V": 0.05, "i_off_uA": 0.37}
        cfg = _write_config(tmp_path / "t.cfg", payload)
        assert main(["trial", "--config", cfg]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        counts = int(row[5]), int(row[6])
        assert row[3:5] == [repr(c * 270.0 + (20 - c) * 0.37) for c in counts]

    def test_row_is_trial_zero_of_the_seeded_cell(self, tmp_path, capsys):
        # trial writes trial 0 of run_trials(cfg, n, seed) for every n: the
        # trial estimate_accuracy(cfg, n, seed) counts first.
        cfg = _write_config(tmp_path / "t.cfg", _trial_config(tmp_path / "out"))
        assert main(["trial", "--config", cfg, "--seed", "11"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        trial = TwoAfcConfig(20, DeviceParams(270.0, RetentionDistribution(2.0, 0.5)), 0.05, 40, 20, 2.0)
        for n in (1, 10, 1000):
            batch = run_trials(trial, n, 11)
            assert row[1] == ("A" if batch.choose_a[0] else "B"), n
            assert row[2] == str(int(batch.correct[0])), n
            assert row[5:] == [str(batch.count1[0]), str(batch.count2[0]), str(int(batch.tie[0]))], n
        assert row[2] == str(int(estimate_accuracy(trial, 1, 11).accuracy))

    def test_no_evidence_row_is_tie(self, tmp_path, capsys):
        payload = _trial_config(tmp_path / "out")
        payload["trial"]["p_on"] = 1e-15  # effectively zero switching
        cfg = _write_config(tmp_path / "t.cfg", payload)
        assert main(["trial", "--config", cfg]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert row[-1] == "1"  # tie flag


def test_simulations_run_with_scipy_unimportable(tmp_path):
    # numpy is the only runtime dependency: a trace or a trial gets p_on from
    # its config, a sweep maps it through the deck's curve, and calibrate fits
    # its probit on log_ndtr, both on memdecide._normal. A None entry in
    # sys.modules makes any scipy import raise ImportError; sweeps run on one
    # thread, so concurrent.futures is poisoned the same way.
    trace_cfg = _write_config(tmp_path / "trace.cfg", _trace_config(tmp_path / "trace"))
    trial_cfg = _write_config(tmp_path / "trial.cfg", _trial_config(tmp_path / "trial"))
    sweep_cfg = _write_config(tmp_path / "sweep.cfg", _sweep_config(tmp_path / "sweep"))
    deck_cfg = _write_config(tmp_path / "deck.cfg", {**_sweep_config(tmp_path / "deck"),
                                                     "deck": str(ROOT / "out/fixtures/deck.json")})
    calibrate_cfg = str(ROOT / "configs/calibrate_example.cfg")
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "sys.modules['concurrent.futures'] = None\n"
        "from memdecide.cli import main\n"
        f"assert main(['trace', '--config', {trace_cfg!r}]) == 0\n"
        f"assert main(['trial', '--config', {trial_cfg!r}]) == 0\n"
        f"assert main(['sweep', '--config', {sweep_cfg!r}]) == 0\n"
        f"assert main(['sweep', '--config', {deck_cfg!r}]) == 0\n"
        f"assert main(['calibrate', '--config', {calibrate_cfg!r}, '--out', {str(tmp_path / 'cal')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['scipy']"
    assert (tmp_path / "cal" / "calibration.csv").is_file()


def test_commands_load_no_module_after_set_up(tmp_path):
    # Module loading belongs to set-up: a module first loaded while a command
    # runs (numpy.random loads lazily, at the first draw, unless imported)
    # adds file reads and their variable cost to the simulation's time.
    trace_cfg = _write_config(tmp_path / "trace.cfg", _trace_config(tmp_path / "trace"))
    trial_cfg = _write_config(tmp_path / "trial.cfg", _trial_config(tmp_path / "trial"))
    sweep_cfg = _write_config(tmp_path / "sweep.cfg", _sweep_config(tmp_path / "sweep"))
    calibrate_cfg = str(ROOT / "configs" / "calibrate_example.cfg")
    code = (
        "import sys\n"
        "from memdecide import cli\n"
        "loaded = set()\n"
        "def watched(run):\n"
        "    def watched_run():\n"
        "        before = set(sys.modules)\n"
        "        try:\n"
        "            return run()\n"
        "        finally:\n"
        "            loaded.update(set(sys.modules) - before)\n"
        "    return watched_run\n"
        "init = cli.RunConfig.__init__\n"
        "def watched_init(self, *args):\n"
        "    init(self, *args)\n"
        "    self.run = watched(self.run)\n"
        "cli.RunConfig.__init__ = watched_init\n"
        f"assert cli.main(['trace', '--config', {trace_cfg!r}]) == 0\n"
        f"assert cli.main(['trial', '--config', {trial_cfg!r}]) == 0\n"
        f"assert cli.main(['sweep', '--config', {sweep_cfg!r}, '--threads', '1']) == 0\n"
        f"assert cli.main(['sweep', '--config', {sweep_cfg!r}, '--threads', '2']) == 0\n"
        f"assert cli.main(['calibrate', '--config', {calibrate_cfg!r}, '--out', {str(tmp_path / 'cal')!r}]) == 0\n"
        "print(sorted(loaded))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_main_leaves_the_collector_working(tmp_path):
    # main freezes what is alive before its run, but not garbage: a cycle
    # dropped before main, and one made after it returns, are both freed.
    class Node:
        pass

    def dropped_cycle(freed, label):
        node = Node()
        node.self = node
        weakref.finalize(node, freed.append, label)

    cfg = _write_config(tmp_path / "t.cfg", _trial_config(tmp_path / "out"))
    enabled = gc.isenabled()
    freed = []
    dropped_cycle(freed, "before")
    assert main(["trial", "--config", cfg]) == 0
    assert gc.isenabled() == enabled
    dropped_cycle(freed, "after")
    gc.collect()
    assert sorted(freed) == ["after", "before"]


@pytest.mark.parametrize("command", ["trial", "sweep"])
def test_subnormal_sigma_runs_with_warnings_as_errors(tmp_path, command):
    # Retention survival at sigma_log = 5e-324 is a step at the median; it
    # is computed without a numpy RuntimeWarning, so -W error exits 0.
    payload = _CONFIGS[command](tmp_path / "out")
    payload[command].update(retention_median_s=1.0, sigma_log=5e-324)
    cfg = _write_config(tmp_path / "c.cfg", payload)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "memdecide.cli", command, "--config", cfg],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


class TestSweep:
    def test_builds_each_cell_once(self, tmp_path, monkeypatch):
        # RunConfig builds the cells and the sweep runs those same cells.
        calls = []
        retention_at = ParamDeck.retention_at
        monkeypatch.setattr(ParamDeck, "retention_at",
                            lambda deck, i_cc: calls.append(i_cc) or retention_at(deck, i_cc))
        payload = _sweep_config(tmp_path / "out")
        payload["sweep"]["device_counts"] = [5, 8]
        cfg = _write_config(tmp_path / "s.cfg", payload)
        assert main(["sweep", "--config", cfg]) == 0
        assert len(calls) == 4  # two durations by two device counts

    def test_report_schema_and_rows(self, tmp_path):
        cfg = _write_config(tmp_path / "s.cfg", _sweep_config(tmp_path / "out"))
        assert main(["sweep", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == (
            "duration_s,n_a,n_b,n_devices,i_cc_uA,p_on,"
            "accuracy,ci_low,ci_high,n_trials,n_ties"
        )
        rows = [line for line in lines if not line.startswith("#")][1:]
        assert len(rows) == 2  # two durations, one cell each

    def test_threads_do_not_change_bytes(self, tmp_path):
        # --threads is parsed and ignored: not echoed, no byte changes.
        cfg1 = _write_config(tmp_path / "s1.cfg", _sweep_config(tmp_path / "o1"))
        cfg2 = _write_config(tmp_path / "s2.cfg", _sweep_config(tmp_path / "o2"))
        assert main(["sweep", "--config", cfg1]) == 0
        assert main(["sweep", "--config", cfg2, "--threads", "4"]) == 0
        strip = lambda p: [
            line for line in (tmp_path / p / "report.csv").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert strip("o1") == strip("o2")
        assert '"threads"' not in (tmp_path / "o2" / "report.csv").read_text()

    def test_synapse_beyond_trace_array_bound_runs(self, tmp_path):
        # A trial allocates nothing per cell, so a sweep may use more cells
        # than any per-cell array could hold.
        payload = _sweep_config(tmp_path / "out", trials=10)
        payload["sweep"]["device_counts"] = [10**17]
        cfg = _write_config(tmp_path / "s.cfg", payload)
        assert main(["sweep", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        assert [row[3] for row in rows] == [str(10**17)] * 2

    def test_ratio_only_chart_draws_one_line(self, tmp_path):
        # With nothing else varying, the ratio is the x axis (at n_a), so the
        # chart has one series through every cell, not one per cell.
        payload = _sweep_config(tmp_path / "out", trials=10)
        payload["sweep"]["durations_s"] = [2.0]
        payload["sweep"]["ratios"] = [[2, 1], [4, 2], [8, 4]]
        cfg = _write_config(tmp_path / "s.cfg", payload)
        assert main(["sweep", "--config", cfg, "--svg"]) == 0
        svg = (tmp_path / "out" / "report.svg").read_text()
        (points,) = re.findall(r'<polyline points="([^"]*)"', svg)
        assert len(points.split()) == 3
        assert ">accuracy</text>" in svg and ">n_a</text>" in svg

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = _write_config(tmp_path / "s.cfg", _sweep_config(tmp_path / "o1"))
        assert main(["sweep", "--config", cfg]) == 0
        cfg2 = _write_config(tmp_path / "s2.cfg", _sweep_config(tmp_path / "o2"))
        assert main(["sweep", "--config", cfg2, "--seed", "99"]) == 0
        a = (tmp_path / "o1" / "report.csv").read_text()
        b = (tmp_path / "o2" / "report.csv").read_text()
        assert a != b


class TestCalibrate:
    def test_end_to_end_round_trip(self, tmp_path, rng):
        sw, ret = _calibration_fixtures(tmp_path, rng)
        cfg = _write_config(
            tmp_path / "c.cfg",
            {
                "seed": 5,
                "out_dir": str(tmp_path / "out"),
                "calibrate": {"switching_csv": str(sw), "retention_csv": str(ret)},
            },
        )
        assert main(["calibrate", "--config", cfg]) == 0
        deck = read_deck(tmp_path / "out" / "deck.json")
        assert deck.switching.v_median == pytest.approx(0.6, abs=0.02)
        assert [i for i, _ in deck.retention_table] == [10.0, 300.0]
        diag = (tmp_path / "out" / "calibration.csv").read_text()
        assert "switching_v_median_V" in diag
        assert "retention_median_s@10uA" in diag

    def test_device_section_supplies_what_is_not_fitted(self, tmp_path, rng):
        # Only retention is fitted, so the switching curve is the device section's.
        _, ret = _calibration_fixtures(tmp_path, rng)
        cfg = _write_config(
            tmp_path / "c.cfg",
            {"seed": 5, "out_dir": str(tmp_path / "out"),
             "device": {"v_median_V": 0.9, "v_spread_V": 0.1},
             "calibrate": {"retention_csv": str(ret)}},
        )
        assert main(["calibrate", "--config", cfg]) == 0
        deck = read_deck(tmp_path / "out" / "deck.json")
        assert deck.switching == SwitchingCurve(0.9, 0.1)
        assert "switching curve: inline device section" in deck.provenance

    def test_device_section_without_table_names_default_retention(self, tmp_path, rng):
        # Only the switching curve is fitted, and the device section holds no
        # retention table, so the table is the built-in default's.
        sw, _ = _calibration_fixtures(tmp_path, rng)
        cfg = _write_config(
            tmp_path / "c.cfg",
            {"seed": 5, "out_dir": str(tmp_path / "out"),
             "device": {"v_median_V": 0.9, "v_spread_V": 0.1},
             "calibrate": {"switching_csv": str(sw)}},
        )
        assert main(["calibrate", "--config", cfg]) == 0
        deck = read_deck(tmp_path / "out" / "deck.json")
        assert [i for i, _ in deck.retention_table] == [10.0, 100.0, 300.0]
        assert deck.provenance.endswith("; retention table: built-in default")

    def test_separated_outcomes_exit_one(self, tmp_path, capsys):
        # Every miss below every hit: no finite curve fits, so nothing is written.
        v = np.sort(np.random.default_rng(3).uniform(0.4, 0.8, 20))
        sw = tmp_path / "sw.csv"
        sw.write_text("v_pulse_V,switched\n" + "".join(f"{float(a)!r},{int(a > 0.6)}\n" for a in v))
        out = tmp_path / "out"
        cfg = _write_config(tmp_path / "c.cfg",
                            {"seed": 5, "out_dir": str(out), "calibrate": {"switching_csv": str(sw)}})
        assert main(["calibrate", "--config", cfg]) == 1
        assert "separated by pulse amplitude" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("row,message",
                             [("300.0,-0.5", "retention_s must be > 0, got -0.5"),
                              ("-10.0,0.5", "i_cc_uA must be > 0, got -10.0")],
                             ids=["retention_s", "i_cc_uA"])
    def test_out_of_range_retention_row_names_its_line(self, tmp_path, capsys, rng, row, message):
        # The values parse, so only the model's range rules can reject them.
        _, ret = _calibration_fixtures(tmp_path, rng)
        lines = ret.read_text().splitlines()
        lines.insert(3, row)
        ret.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        cfg = _write_config(tmp_path / "c.cfg",
                            {"seed": 5, "out_dir": str(out), "calibrate": {"retention_csv": str(ret)}})
        assert main(["calibrate", "--config", cfg]) == 1
        assert f"error: {ret}:4: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_deck_feeds_other_commands(self, tmp_path, rng):
        sw, ret = _calibration_fixtures(tmp_path, rng)
        cal_cfg = _write_config(
            tmp_path / "c.cfg",
            {"seed": 5, "out_dir": str(tmp_path / "cal"),
             "calibrate": {"switching_csv": str(sw), "retention_csv": str(ret)}},
        )
        assert main(["calibrate", "--config", cal_cfg]) == 0
        payload = _trial_config(tmp_path / "out")
        payload["deck"] = str(tmp_path / "cal" / "deck.json")
        del payload["trial"]["retention_median_s"]
        del payload["trial"]["sigma_log"]
        cfg = _write_config(tmp_path / "t.cfg", payload)
        assert main(["trial", "--config", cfg]) == 0


class TestConfigErrors:
    def test_missing_file(self):
        assert main(["trace", "--config", "/nonexistent/x.cfg"]) == 2

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("{not json")
        assert main(["trace", "--config", str(bad)]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        payload = _trace_config(tmp_path / "out")
        payload["trace"]["pulse_shape"] = "triangular"
        cfg = _write_config(tmp_path / "t.cfg", payload)
        assert main(["trace", "--config", cfg]) == 2

    def test_threads_key_is_unknown(self, tmp_path, capsys):
        # --threads is parsed and ignored; no config key stands behind it.
        payload = _sweep_config(tmp_path / "out")
        payload["threads"] = 2
        cfg = _write_config(tmp_path / "s.cfg", payload)
        assert main(["sweep", "--config", cfg]) == 2
        assert "unknown keys ['threads']" in capsys.readouterr().err

    def test_section_must_match_command(self, tmp_path):
        cfg = _write_config(tmp_path / "t.cfg", _trial_config(tmp_path / "out"))
        assert main(["trace", "--config", cfg]) == 2

    def test_subcommands_are_the_command_sections_of_the_schema(self):
        # The top-level sections of the schema are the device section and one per command.
        fields = inspect.getclosurevars(cli._SCHEMA).nonlocals["fields"]
        sections = {key for key, convert in fields.items()
                    if "fields" in inspect.getclosurevars(convert).nonlocals}
        (choices,) = re.findall(r"\{(.+?)\}", build_parser().format_usage())
        assert sorted(choices.split(",")) == sorted(sections - {"device"})

    def test_missing_seed(self, tmp_path):
        payload = _trace_config(tmp_path / "out")
        del payload["seed"]
        cfg = _write_config(tmp_path / "t.cfg", payload)
        assert main(["trace", "--config", cfg]) == 2

    def test_seed_flag_rescues_missing_seed(self, tmp_path):
        payload = _trace_config(tmp_path / "out")
        del payload["seed"]
        cfg = _write_config(tmp_path / "t.cfg", payload)
        assert main(["trace", "--config", cfg, "--seed", "8"]) == 0

    def test_two_list_axes_rejected(self, tmp_path):
        payload = _trace_config(tmp_path / "out")
        payload["trace"]["i_cc_uA"] = [10.0, 300.0]  # p_on is already a list
        cfg = _write_config(tmp_path / "t.cfg", payload)
        assert main(["trace", "--config", cfg]) == 2

    def test_probability_bounds_checked(self, tmp_path):
        payload = _trial_config(tmp_path / "out")
        payload["trial"]["p_on"] = 1.0
        cfg = _write_config(tmp_path / "t.cfg", payload)
        assert main(["trial", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "command,path,value",
        [
            ("sweep", ("sweep", "sigma_log"), math.nan),
            ("sweep", ("sweep", "durations_s"), [math.nan]),
            ("trace", ("trace", "pulses", "rate_hz"), math.inf),
        ],
        ids=["sweep.sigma_log=NaN", "sweep.durations_s=[NaN]", "trace.pulses.rate_hz=Infinity"],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, command, path, value):
        out = tmp_path / "out"
        payload = _sweep_config(out) if command == "sweep" else _trace_config(out)
        if command == "sweep":
            payload["sweep"]["retention_median_s"] = 2.0
        section = payload
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        cfg = _write_config(tmp_path / "t.cfg", payload)
        assert main([command, "--config", cfg]) == 2
        assert not out.exists()

    def test_overflowing_number_rejected(self, tmp_path):
        # 1e999 is valid JSON but parses to an infinite float.
        out = tmp_path / "out"
        text = json.dumps(_sweep_config(out)).replace("[0.5, 2.0]", "[0.5, 1e999]")
        cfg = tmp_path / "t.cfg"
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "broken",
        ["nan_field", "missing_key", "nonpositive_current", "repeated_current",
         "bool_median", "bool_spread", "string_current", "huge_int", "infinite_current"],
    )
    def test_invalid_deck_exits_two(self, tmp_path, capsys, broken):
        deck = json.loads((ROOT / "out" / "calibration" / "deck.json").read_text())
        if broken == "nan_field":
            deck["switching"]["v_spread_V"] = math.nan
        elif broken == "missing_key":
            del deck["switching"]["v_median_V"]
        elif broken == "repeated_current":
            deck["retention_table"][1]["i_cc_uA"] = deck["retention_table"][0]["i_cc_uA"]
        elif broken == "bool_median":
            deck["retention_table"][0]["median_s"] = True
        elif broken == "bool_spread":
            deck["switching"]["v_spread_V"] = True
        elif broken == "string_current":
            deck["retention_table"][2]["i_cc_uA"] = "300"
        elif broken == "huge_int":
            deck["switching"]["v_median_V"] = 10**400  # no float holds it
        elif broken == "infinite_current":
            deck["retention_table"][2]["i_cc_uA"] = math.inf  # json writes Infinity
        else:
            # Interpolation takes the log of every tabulated current.
            deck["retention_table"][0]["i_cc_uA"] = -10.0
        (tmp_path / "deck.json").write_text(json.dumps(deck))
        out = tmp_path / "out"
        payload = _trial_config(out)
        payload["deck"] = "deck.json"
        cfg = _write_config(tmp_path / "t.cfg", payload)
        assert main(["trial", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error: config: invalid deck" in err
        # A field that is not a number is named by its key.
        assert {"bool_median": "retention_table[0].median_s must be a number, got True",
                "bool_spread": "switching.v_spread_V must be a number, got True",
                "string_current": "retention_table[2].i_cc_uA must be a number, got '300'",
                "infinite_current": "i_cc_uA must be finite, got inf",
                }.get(broken, "") in err
        assert not out.exists()

    @pytest.mark.parametrize("as_error", [False, True], ids=["warns", "error-filter"])
    @pytest.mark.parametrize("source", ["device", "deck"])
    def test_deck_warning_names_its_source(self, tmp_path, capsys, source, as_error):
        # Medians that fall with the current pass, with a warning (measured
        # data is noisy); an error filter makes the warning a config error.
        rows = [[10.0, 0.5, 0.5], [100.0, 0.1, 0.5], [300.0, 1.0, 0.5]]
        out = tmp_path / "out"
        payload = _trial_config(out)
        if source == "device":
            payload["device"] = {"v_median_V": 0.6, "v_spread_V": 0.05, "retention_table": rows}
            where = "device"
        else:
            deck = {"provenance": "noisy", "switching": {"v_median_V": 0.6, "v_spread_V": 0.05},
                    "retention_table": [dict(zip(("i_cc_uA", "median_s", "sigma_log"), row))
                                        for row in rows]}
            (tmp_path / "deck.json").write_text(json.dumps(deck))
            payload["deck"] = "deck.json"
            where = f"config: deck {tmp_path / 'deck.json'}"
        cfg = _write_config(tmp_path / "t.cfg", payload)
        message = f"{where}: retention medians are not monotone in i_cc"
        if as_error:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["trial", "--config", cfg]) == 2
            assert f"config error: {message}\n" in capsys.readouterr().err
            assert not out.exists()
        else:
            with pytest.warns(UserWarning) as record:
                assert main(["trial", "--config", cfg]) == 0
            assert [str(w.message) for w in record] == [message]

    @pytest.mark.parametrize(
        "command,path,value",
        [
            ("sweep", "sweep.device_counts", [5, 0]),
            ("sweep", "sweep.i_cc_values_uA", [270.0, -5.0]),
            ("sweep", "sweep.ratios", [[2, 1], [4, -2]]),
            ("trace", "trace.n_devices", 0),
            ("trace", "trace.i_cc_uA", [300.0, -5.0]),
            ("trace", "trace.tail_s", -1.0),
            ("sweep", "sweep.device_counts", [5, 2.5]),
            ("sweep", "sweep.device_counts", [5, True]),
            ("sweep", "sweep.ratios", [[2, 1], [True, 1]]),
            ("sweep", "sweep.durations_s", [0.5, "1"]),
            ("trace", "trace.i_cc_uA", [300.0, "300"]),
            ("sweep", "sweep.ratios", [[2, 1], ["x", 1]]),
            ("sweep", "sweep.i_cc_values_uA", [270.0, None]),
            ("trace", "trace.pulses.rate_hz", -1.0),
            ("trace", "trace.pulses", {"random": {"n_pulses": -3, "duration_s": 1.0}}),
            ("trial", "trial.i_cc_uA", -5.0),
            ("sweep", "device", {"v_median_V": 0.6, "v_spread_V": 0.05,
                                 "retention_table": [[10, 0.01, 0.5], [10, "a", 0.5]]}),
            ("sweep", "device", {"v_median_V": 0.6, "v_spread_V": 0.05,
                                 "retention_table": [[10, 0.01, 0.5], [10, -0.01, 0.5]]}),
            # One rule set for every section.
            ("trace", "trace.sigma_log", 0.5),
            ("sweep", "sweep.sigma_log", 0.5),
            ("trace", "trace.p_on", []),
            ("trace", "trace.retention_median_s", [1.0, None]),
            ("trace", "trace.pulses", {"n_pulses": 10, "rate_hz": 10.0, "replay_csv": "pulses.csv"}),
            ("trace", "trace.pulses", {"rate_hz": 10.0}),
            # Counts beyond the int64 n of rng.binomial.
            ("sweep", "sweep.device_counts", [5, 10**30]),
            ("trace", "trace.n_devices", 10**30),
            ("trial", "trial.n_devices", 10**30),
            # Sample grids that are empty or that no float64 array can hold.
            ("trace", "trace.sample_rate_hz", 0.0),
            ("trace", "trace.sample_rate_hz", 1e300),
            ("trace", "trace.tail_s", 1e300),
            ("trace", "trace.tail_s", 1e308),
            ("trace", "trace.pulses.rate_hz", 1e-300),
        ],
        ids=["sweep.device_counts=[5,0]", "sweep.i_cc_values_uA=[270,-5]",
             "sweep.ratios=[[2,1],[4,-2]]", "trace.n_devices=0",
             "trace.i_cc_uA=[300,-5]", "trace.tail_s=-1",
             "sweep.device_counts=[5,2.5]", "sweep.device_counts=[5,true]",
             "sweep.ratios=[[2,1],[true,1]]", "sweep.durations_s=[0.5,'1']",
             "trace.i_cc_uA=[300,'300']", "sweep.ratios=[[2,1],['x',1]]",
             "sweep.i_cc_values_uA=[270,null]", "trace.pulses.rate_hz=-1",
             "trace.pulses.random.n_pulses=-3", "trial.i_cc_uA=-5",
             "device.retention_table=[..,[10,'a',0.5]]",
             "device.retention_table=[..,[10,-0.01,0.5]]",
             "trace.sigma_log-without-median", "sweep.sigma_log-without-median",
             "trace.p_on=[]", "trace.retention_median_s=[1,null]",
             "trace.pulses=replay+periodic", "trace.pulses=rate-only",
             "sweep.device_counts=[5,10**30]", "trace.n_devices=10**30",
             "trial.n_devices=10**30", "trace.sample_rate_hz=0", "trace.sample_rate_hz=1e300",
             "trace.tail_s=1e300", "trace.tail_s=1e308", "trace.pulses.rate_hz=1e-300"],
    )
    def test_invalid_value_exits_two_before_running(self, tmp_path, command, path, value):
        # A bad list value sits in the last grid cell or series, so an early
        # one would be simulated first if validation were lazy.
        (tmp_path / "pulses.csv").write_text("# duration_s=1.0\nt_s\n0.1\n")
        out = tmp_path / "out"
        payload = _CONFIGS[command](out)
        if path in ("trace.i_cc_uA", "trace.retention_median_s"):
            payload["trace"]["p_on"] = 0.1  # the one list axis
        _set(payload, path, value)
        cfg = _write_config(tmp_path / "t.cfg", payload)
        assert main([command, "--config", cfg]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,where",
        [("# duration_s=1.0\nt_s\n0.1\nnan\n", ":4:"),
         ("# duration_s=inf\nt_s\n0.1\n", ":1:"),
         ("# duration_s=1.0\nt_s\n0.1\nabc\n", ":4:"),
         # A file with no pulses still needs a window of at least the smallest normal float.
         ("# duration_s=-1.0\nt_s\n", f": duration_s must be >= {sys.float_info.min}, got -1.0\n"),
         ("# duration_s=5e-324\nt_s\n", f": duration_s must be >= {sys.float_info.min}, got 5e-324\n")],
        ids=["row=nan", "duration_s=inf", "row=abc",
             "no_pulses_duration_s=-1", "no_pulses_duration_s=5e-324"],
    )
    def test_bad_replay_csv_exits_two(self, tmp_path, capsys, text, where):
        replay = tmp_path / "pulses.csv"
        replay.write_text(text)
        out = tmp_path / "out"
        payload = _trace_config(out)
        payload["trace"]["pulses"] = {"replay_csv": str(replay)}
        cfg = _write_config(tmp_path / "t.cfg", payload)
        assert main(["trace", "--config", cfg]) == 2
        assert f"{replay}{where}" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_csv_without_header_exits_two(self, tmp_path, capsys):
        replay = tmp_path / "pulses.csv"
        replay.write_text("# duration_s=1.0\n0.1\n0.5\n")
        out = tmp_path / "out"
        payload = _trace_config(out)
        payload["trace"]["pulses"] = {"replay_csv": str(replay)}
        cfg = _write_config(tmp_path / "t.cfg", payload)
        assert main(["trace", "--config", cfg]) == 2
        assert f"{replay}: expected header 't_s'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,path,value,where",
                             [("sweep", "sweep.device_counts", [5, 2**63], "sweep.device_counts[1]"),
                              ("trial", "trial.n_devices", 2**63, "trial")],
                             ids=["sweep", "trial"])
    def test_device_count_beyond_binomial_range_exits_two(self, tmp_path, capsys,
                                                          command, path, value, where):
        # rng.binomial takes an int64 count; 2**63 would overflow at run time.
        out = tmp_path / "out"
        payload = _CONFIGS[command](out)
        _set(payload, path, value)
        cfg = _write_config(tmp_path / "c.cfg", payload)
        assert main([command, "--config", cfg]) == 2
        assert f"{where}: n_devices must lie in [1, 2**63 - 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_cell_pool_beyond_int64_exits_two(self, tmp_path, capsys):
        # Each factor is in range, but a series pools repeats * n_devices =
        # 2**64 cells into one chain, whose counts are int64.
        out = tmp_path / "out"
        payload = _trace_config(out)
        payload["trace"].update(n_devices=2**51, repeats=2**13)
        cfg = _write_config(tmp_path / "c.cfg", payload)
        assert main(["trace", "--config", cfg]) == 2
        assert (f"config error: trace: repeats * n_devices = {2**64} cells is more than 2**63 - 1\n"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,path,value,message",
        [("sweep", "sweep.ratios", [[2, 1], [-2, 1]],
          "sweep.ratios[1][0]: n_pulses must be >= 0, got -2"),
         ("sweep", "sweep.i_cc_values_uA", [270.0, -5],
          "sweep.i_cc_values_uA[1]: i_cc_uA must be > 0, got -5.0"),
         ("sweep", "sweep.trials", 0, "sweep.trials must be >= 1, got 0"),
         # A pulse count names its stream; other trial range errors name the section.
         ("trial", "trial.n_a", -3, "trial.n_a: n_pulses must be >= 0, got -3"),
         ("trial", "trial.n_b", -2, "trial.n_b: n_pulses must be >= 0, got -2"),
         ("trial", "trial.i_cc_uA", -5, "trial: i_cc_uA must be > 0, got -5.0"),
         ("trace", "trace.pulses.n_pulses", -2, "trace.pulses.n_pulses: n_pulses must be >= 0, got -2"),
         # A pulse count too large for a chunk's (256, n) float64 pulse-time matrix.
         ("trial", "trial.n_a", 2**60, f"trial.n_a: {_TOO_MANY_PULSES}"),
         ("sweep", "sweep.ratios", [[2, 1], [2**60, 1]], f"sweep.ratios[1][0]: {_TOO_MANY_PULSES}"),
         ("trace", "trace.pulses.n_pulses", 2**60, f"trace.pulses.n_pulses: {_TOO_MANY_PULSES}"),
         ("trace", "trace.pulses", {"random": {"n_pulses": 2**60, "duration_s": 2.0}},
          f"trace.pulses.random.n_pulses: {_TOO_MANY_PULSES}"),
         ("trace", "trace.n_devices", 0, "trace.n_devices: n_devices must lie in [1, 2**63 - 1], got 0"),
         ("trace", "trace.pulses", {"random": {"n_pulses": 5, "duration_s": 5e-324}},
          f"trace.pulses.random.duration_s: duration_s must be >= {sys.float_info.min}, got 5e-324"),
         # A list-valued trace axis names the entry, as a sweep axis does.
         ("trace", "trace.i_cc_uA", [100.0, -5.0], "trace.i_cc_uA[1]: i_cc_uA must be > 0, got -5.0"),
         ("trace", "trace.retention_median_s", [1.0, -2.0],
          "trace.retention_median_s[1]: median_s must be > 0, got -2.0"),
         # Device errors name the device section, whatever the command.
         ("trial", "device", {"v_median_V": 0.6, "v_spread_V": -1.0},
          "device: v_spread must be > 0, got -1.0"),
         ("trial", "device", {"v_median_V": 0.6, "v_spread_V": 0.05,
                              "retention_table": [[10.0, 0.05, 0.5], [300.0, -0.1, 0.5]]},
          "device.retention_table[1]: median_s must be > 0, got -0.1"),
         ("sweep", "device", {"v_median_V": 0.6, "v_spread_V": 0.05,
                              "retention_table": [[-5.0, 0.05, 0.5], [300.0, 2.0, 0.5]]},
          "device: i_cc_uA must be > 0, got -5.0"),
         ("trial", "device", {"v_median_V": 0.6, "v_spread_V": 0.05,
                              "retention_table": [[100.0, 0.1, 0.5], [100.0, 0.2, 0.5],
                                                  [300.0, 1.0, 0.5]]},
          "device: retention_table has two rows at i_cc_uA 100.0"),
         ("trace", "device", {"v_median_V": 0.6, "v_spread_V": 0.05, "i_off_uA": -1.0},
          "device.i_off_uA: i_off_uA must be >= 0, got -1.0")],
        ids=["sweep.ratios", "sweep.i_cc_values_uA", "sweep.trials", "trial.n_a", "trial.n_b",
             "trial.i_cc_uA", "trace.pulses.n_pulses", "trial.n_a=2**60", "sweep.ratios=2**60",
             "trace.pulses.n_pulses=2**60", "trace.pulses.random.n_pulses=2**60", "trace.n_devices",
             "trace.pulses.random.duration_s", "trace.i_cc_uA", "trace.retention_median_s",
             "device.v_spread_V", "device.retention_table.median_s",
             "device.retention_table.i_cc_uA", "device.retention_table.repeated_i_cc",
             "device.i_off_uA"],
    )
    def test_range_error_names_its_entry(self, tmp_path, capsys, command, path, value, message):
        out = tmp_path / "out"
        payload = _CONFIGS[command](out)
        if path in ("trace.i_cc_uA", "trace.retention_median_s"):
            payload["trace"]["p_on"] = 0.1  # the one list axis
        _set(payload, path, value)
        cfg = _write_config(tmp_path / "c.cfg", payload)
        assert main([command, "--config", cfg]) == 2
        assert f"config error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,path,value,where",
                             [("trial", "trial.duration_s", 5e-324, "trial"),
                              ("sweep", "sweep.durations_s", [2.0, 5e-324], "sweep.durations_s[1]")],
                             ids=["trial", "sweep"])
    def test_subnormal_window_exits_two(self, tmp_path, capsys, command, path, value, where):
        # A subnormal window holds too few representable pulse times: the
        # one-ulp nudges of duplicate times would carry pulses past its end.
        out = tmp_path / "out"
        payload = _CONFIGS[command](out)
        _set(payload, path, value)
        cfg = _write_config(tmp_path / "c.cfg", payload)
        assert main([command, "--config", cfg]) == 2
        assert f"{where}: duration_s must be >= {sys.float_info.min}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,path", [("trial", "trial.duration_s"),
                                              ("sweep", "sweep.durations_s")],
                             ids=["trial", "sweep"])
    def test_smallest_normal_window_runs(self, tmp_path, command, path):
        payload = _CONFIGS[command](tmp_path / "out")
        _set(payload, path, [sys.float_info.min] if command == "sweep" else sys.float_info.min)
        cfg = _write_config(tmp_path / "c.cfg", payload)
        assert main([command, "--config", cfg]) == 0

    def test_calibrate_needs_some_input(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.cfg", {"seed": 5, "calibrate": {}}
        )
        assert main(["calibrate", "--config", cfg]) == 2

    def test_runtime_error_exits_one(self, tmp_path):
        # Malformed data discovered mid-run (after config validation).
        bad_csv = tmp_path / "sw.csv"
        bad_csv.write_text("v_pulse_V,switched\n0.5,maybe\n")
        cfg = _write_config(
            tmp_path / "c.cfg",
            {"seed": 5, "out_dir": str(tmp_path / "out"),
             "calibrate": {"switching_csv": str(bad_csv)}},
        )
        assert main(["calibrate", "--config", cfg]) == 1
