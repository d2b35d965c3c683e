"""Deterministic CSV emission for traces, trials, sweep reports and calibrations.

All files use '.' as the decimal separator, '\\n' newlines, a mandatory header
row, and optional leading '#' comment lines carrying provenance (the effective
run configuration). Every data row is made by :func:`format_rows`, which
converts a table one column at a time: floats are rendered with ``repr``, the
shortest exact round-trip form, bools as ``0``/``1`` and everything else with
``str``, so identical runs produce byte-identical files.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .experiment import AccuracyPoint
from .network import TrialBatch, TwoAfcConfig
from .synapse import Trace

__all__ = [
    "format_rows",
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
REPORT_HEADER = list(AccuracyPoint._fields)


def _format(values: np.ndarray) -> list[str]:
    """Format every value of ``values``, converted to builtin scalars at once."""
    if values.dtype.kind == "b":
        values = values.astype(np.int8)
    return list(map(repr if values.dtype.kind == "f" else str, values.reshape(-1).tolist()))


def format_rows(*columns) -> list[str]:
    """CSV data lines from ``columns``, each a 1-D sequence with one value per row.

    Each column is converted to one numpy array and formatted by its dtype:
    floats with builtin-float ``repr``, bools as ``0``/``1``, anything else
    with ``str``. A scalar column fills every row and is formatted once; with
    only scalar columns there is one row.
    """
    arrays = [np.asarray(column) for column in columns]
    n_rows = max((a.size for a in arrays if a.ndim), default=1)
    cells = (_format(a) if a.ndim else _format(a) * n_rows for a in arrays)
    return [",".join(row) for row in zip(*cells, strict=True)]


def write_csv(path, header: Sequence[str], rows: Iterable[str], comments: Sequence[str] = ()) -> None:
    """Write ``comments`` as ``#`` lines, then ``header``, then the formatted ``rows``."""
    lines = [f"# {comment}" for comment in comments]
    lines.append(",".join(header))
    lines.extend(rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def trace_rows(series: str, p_on: float, i_cc_uA: float, trace: Trace, repeats: int) -> list[str]:
    """Rows for one trace series; ``repeat_mean`` records the averaging depth.

    Every ``Trace`` column is written as floats, so an integer count prints
    as ``5.0``.
    """
    columns = (np.asarray(column, dtype=float) for column in trace)
    return format_rows(series, float(p_on), float(i_cc_uA), *columns, repeats)


def trial_row(index: int, cfg: TwoAfcConfig, batch: TrialBatch) -> str:
    """Row 0 of ``batch``, a trial of ``cfg``: ``decision`` as ``A`` or ``B``, currents from the counts."""
    counts = batch.count1[0], batch.count2[0]
    currents = (cfg.params.current_uA(count, cfg.n_devices) for count in counts)
    (row,) = format_rows(index, "A" if batch.choose_a[0] else "B", batch.correct[0],
                         *currents, *counts, batch.tie[0])
    return row


def report_rows(points: Iterable[AccuracyPoint]) -> list[str]:
    """One row per point, its fields in ``REPORT_HEADER`` order."""
    return format_rows(*zip(*points))
