"""The CSV format: the bytes of every data row and of the file around it, both ways."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from memdecide import DeviceParams, RetentionDistribution
from memdecide.experiment import AccuracyPoint
from memdecide.reports import format_rows, parse_finite, read_csv, write_csv
from memdecide.synapse import Trace

SRC = Path(__file__).resolve().parent.parent / "src"


class TestFormatRows:
    @pytest.mark.parametrize(
        "value,text",
        [
            (1e-05, "1e-05"),
            (0.1 + 0.2, "0.30000000000000004"),
            (50.0, "50.0"),
            (-0.0, "-0.0"),
            (1e300, "1e+300"),
            (np.float64(0.1), "0.1"),
            (np.float32(0.1), "0.10000000149011612"),
            (7, "7"),
            (np.int64(-3), "-3"),
            (np.uint8(200), "200"),
            (10**30, "1000000000000000000000000000000"),
            (True, "1"),
            (False, "0"),
            (np.bool_(True), "1"),
            (np.bool_(False), "0"),
            ("A", "A"),
            ("p_on=0.01", "p_on=0.01"),
        ],
    )
    def test_scalar_values(self, value, text):
        assert format_rows(value) == [text]

    def test_columns_are_formatted_by_dtype(self):
        rows = format_rows(
            np.array([0.5, 1e-05]), np.array([3, 4]), np.array([True, False]), ["x", "y"]
        )
        assert rows == ["0.5,3,1,x", "1e-05,4,0,y"]

    def test_float_column_matches_builtin_repr(self):
        values = np.random.default_rng(3).standard_normal(200) * 10.0 ** np.arange(-100, 100)
        assert format_rows(values) == [repr(float(v)) for v in values]

    def test_scalar_columns_fill_every_row(self):
        assert format_rows("s", np.array([1.0, 2.0, 3.0]), 7) == ["s,1.0,7", "s,2.0,7", "s,3.0,7"]

    def test_only_scalars_make_one_row(self):
        assert format_rows("a", 1, 2.0) == ["a,1,2.0"]

    def test_empty_columns_make_no_rows(self):
        assert format_rows("s", np.array([]), 7) == []
        assert format_rows() == []

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            format_rows(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


class TestWriteCsv:
    def test_comments_header_rows_and_trailing_newline(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], ["1,2.0", "3,4.0"], ["command=trace", "rng_layout=3"])
        assert path.read_bytes() == b"# command=trace\n# rng_layout=3\na,b\n1,2.0\n3,4.0\n"

    def test_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [])
        assert path.read_bytes() == b"a,b\n"


class TestReadCsv:
    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], format_rows([1, 2], [0.5, 1e-05]), ["command=trace", "seed=7"])
        comments, rows = read_csv(path, ["a", "b"])
        assert comments == {"command": (1, "trace"), "seed": (2, "7")}
        assert rows == [(4, ["1", "0.5"]), (5, ["2", "1e-05"])]

    def test_blank_and_comment_lines_keep_line_numbers(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\n# note\n a,b \n\n1,2\n# k = v\n3,4\n")
        comments, rows = read_csv(path, ["a", "b"])
        assert comments == {"note": (2, ""), "k": (6, "v")}
        assert rows == [(5, ["1", "2"]), (7, ["3", "4"])]

    @pytest.mark.parametrize(
        "text,message",
        [("", ": expected header 'a,b'"),
         ("# a=1\n", ": expected header 'a,b'"),
         ("a,c\n1,2\n", ": expected header 'a,b'"),
         ("1,2\na,b\n", ": expected header 'a,b'"),
         ("a,b\n1,2\n3\n", ":3: expected 2 fields, got '3'")],
        ids=["empty", "comment-only", "wrong-header", "row-before-header", "short-row"],
    )
    def test_errors_name_the_path(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_csv(path, ["a", "b"])
        assert str(info.value).startswith(f"{path}{message}")


class TestParseFinite:
    @pytest.mark.parametrize("text,value", [("0.5", 0.5), (" 1e-05 ", 1e-05), ("-3", -3.0)])
    def test_finite(self, text, value):
        assert parse_finite(text, "f.csv", 1) == value

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400", "abc", ""])
    def test_rejects_the_rest(self, text):
        with pytest.raises(ValueError, match=f"^f.csv:9: not a finite number: {text!r}$"):
            parse_finite(text, "f.csv", 9)


class TestReportRows:
    # The rows each command writes, made the way the command makes them.
    def test_trace_rows(self):
        trace = Trace(
            times=np.array([0.0, 0.01]),
            count_on=np.array([5.0, 0.0]),  # a mean over repeats
            current_uA=np.array([1500.0, 0.1 + 0.2]),
        )
        assert format_rows("p_on=0.1", 0.1, 300.0, *trace, 200) == [
            "p_on=0.1,0.1,300.0,0.0,5.0,1500.0,200",
            "p_on=0.1,0.1,300.0,0.01,0.0,0.30000000000000004,200",
        ]

    def test_trial_row(self):
        # Currents come from the counts: c * i_cc + (N - c) * i_off, N = 2.
        params = DeviceParams(300.0, RetentionDistribution(1.0), i_off_uA=0.37)
        counts = np.int64(1), np.int64(2)
        currents = (params.current_uA(count, 2) for count in counts)
        assert format_rows(4, "B", np.bool_(False), *currents, *counts, np.bool_(True)) == [
            "4,B,0,300.37,600.0,1,2,1"
        ]

    def test_report_rows(self):
        point = AccuracyPoint(
            duration_s=2.0, n_a=40, n_b=20, n_devices=20, i_cc_uA=270.0,
            p_on=0.010000000000000016, accuracy=0.9, ci_low=0.1 + 0.2, ci_high=1.0,
            n_trials=1000, n_ties=np.int64(3),
        )
        assert format_rows(*zip(point, point)) == [
            "2.0,40,20,20,270.0,0.010000000000000016,0.9,0.30000000000000004,1.0,1000,3"
        ] * 2
        assert format_rows(*zip(*[])) == []


def test_imports_no_other_memdecide_module():
    # The package's __init__ imports every module, so it is replaced by an
    # empty package before memdecide.reports is imported.
    code = (
        "import sys, types\n"
        "package = types.ModuleType('memdecide')\n"
        f"package.__path__ = [{str(SRC / 'memdecide')!r}]\n"
        "sys.modules['memdecide'] = package\n"
        "import memdecide.reports\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'memdecide'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['memdecide', 'memdecide.reports']"
