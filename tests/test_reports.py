"""CSV emission: the byte format of every data row and of the file around it."""

import numpy as np
import pytest

from memdecide import DeviceParams, RetentionDistribution
from memdecide.experiment import AccuracyPoint
from memdecide.network import TrialBatch, TwoAfcConfig
from memdecide.reports import (
    TRACE_HEADER,
    format_rows,
    report_rows,
    trace_rows,
    trial_row,
    write_csv,
)
from memdecide.synapse import Trace


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


class TestProducers:
    def test_trace_line_with_integer_counts(self):
        trace = Trace(
            times=np.array([0.0, 0.01]),
            count_on=np.array([5, 0], dtype=np.int64),
            current_uA=np.array([1500.0, 0.1 + 0.2]),
        )
        rows = trace_rows("p_on=0.1", 0.1, 300, trace, 200)
        assert rows == [
            "p_on=0.1,0.1,300.0,0.0,5.0,1500.0,200",
            "p_on=0.1,0.1,300.0,0.01,0.0,0.30000000000000004,200",
        ]
        assert len(rows[0].split(",")) == len(TRACE_HEADER)

    def test_trial_row(self):
        # Currents come from the counts: c * i_on + (N - c) * i_off, N = 2.
        params = DeviceParams(300.0, RetentionDistribution(1.0), i_off_uA=0.37)
        cfg = TwoAfcConfig(n_devices=2, params=params, p_on=0.5, n_a=4, n_b=2, duration_s=1.0)
        batch = TrialBatch(
            choose_a=np.array([False]), correct=np.array([False]),
            count1=np.array([1]), count2=np.array([2]), tie=np.array([True]),
        )
        assert trial_row(4, cfg, batch) == "4,B,0,300.37,600.0,1,2,1"

    def test_report_rows(self):
        point = AccuracyPoint(
            duration_s=2.0, n_a=40, n_b=20, n_devices=20, i_cc_uA=270.0,
            p_on=0.010000000000000016, accuracy=0.9, ci_low=0.1 + 0.2, ci_high=1.0,
            n_trials=1000, n_ties=np.int64(3),
        )
        assert report_rows([point, point]) == [
            "2.0,40,20,20,270.0,0.010000000000000016,0.9,0.30000000000000004,1.0,1000,3"
        ] * 2
        assert report_rows([]) == []
