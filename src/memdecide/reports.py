"""Deterministic CSV emission for traces, trials, and sweep reports.

All files use '.' as the decimal separator, '\\n' newlines, a mandatory header
row, and optional leading '#' comment lines carrying provenance (the effective
run configuration). Floats are rendered with ``repr``, the shortest exact
round-trip form, so identical runs produce byte-identical files.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .experiment import AccuracyPoint
from .network import TrialBatch
from .synapse import Trace

__all__ = [
    "format_value",
    "write_csv",
    "trace_rows",
    "trial_row",
    "report_rows",
    "TRACE_HEADER",
    "TRIAL_HEADER",
    "REPORT_HEADER",
]

TRACE_HEADER = ["series", "p_on", "i_cc_uA", "t_s", "count_on", "current_uA", "repeat_mean"]
TRIAL_HEADER = ["trial", "decision", "correct", "i1_uA", "i2_uA", "count1", "count2", "tie"]
REPORT_HEADER = [
    "duration_s", "n_a", "n_b", "n_devices", "i_cc_uA", "p_on",
    "accuracy", "ci_low", "ci_high", "n_trials", "n_ties",
]


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # builtin-float repr: shortest exact form
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence], comments: Sequence[str] = ()) -> None:
    lines = [f"# {comment}" for comment in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def trace_rows(series: str, p_on: float, i_cc_uA: float, trace: Trace, repeats: int):
    """Rows for one trace series; ``repeat_mean`` records the averaging depth."""
    for t, count, current in zip(trace.times, trace.count_on, trace.current_uA):
        yield (series, float(p_on), float(i_cc_uA), float(t), float(count), float(current), repeats)


def trial_row(index: int, batch: TrialBatch):
    """Row 0 of ``batch``, with ``decision`` written as ``A`` or ``B``."""
    return (
        index, "A" if batch.choose_a[0] else "B", batch.correct[0],
        float(batch.i1_uA[0]), float(batch.i2_uA[0]),
        batch.count1[0], batch.count2[0], batch.tie[0],
    )


def report_rows(points: Iterable[AccuracyPoint]):
    for p in points:
        yield (
            float(p.duration_s), p.n_a, p.n_b, p.n_devices,
            float(p.i_cc_uA), float(p.p_on),
            float(p.accuracy), float(p.ci_low), float(p.ci_high),
            p.n_trials, p.n_ties,
        )
