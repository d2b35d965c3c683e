"""The CSV format, both ways: every CSV file memdecide writes or reads.

All files use '.' as the decimal separator, '\\n' newlines, a mandatory header
row, and optional leading ``# key=value`` comment lines carrying provenance
(the effective run configuration, a replay stream's window). Every data row
is made by :func:`format_rows`, which converts a table one column at a time:
floats are rendered with ``repr``, the shortest exact round-trip form, bools
as ``0``/``1`` and everything else with ``str``, so identical runs produce
byte-identical files. :func:`read_csv` reads a file back. This module imports
nothing else from memdecide.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = ["format_rows", "write_csv", "read_csv", "parse_finite"]


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


def read_csv(path, header: Sequence[str]):
    """``(comments, rows)`` of a CSV file whose header is ``header``.

    ``comments`` maps each ``# key=value`` line's key to ``(line number,
    value)``; ``rows`` holds each line after the header as ``(line number,
    fields)``. Blank lines are skipped. A missing header, or a row whose field
    count differs from the header's, is a ``ValueError`` naming ``path``.
    """
    comments, lines = {}, []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                comments[key.strip()] = (lineno, value.strip())
            elif line:
                lines.append((lineno, line.split(",")))
    if not lines or lines[0][1] != list(header):
        raise ValueError(f"{path}: expected header {','.join(header)!r}")
    for lineno, fields in lines[1:]:
        if len(fields) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {','.join(fields)!r}")
    return comments, lines[1:]


def parse_finite(text: str, path, lineno: int) -> float:
    """``text`` as a finite float; anything else is a ``ValueError`` naming ``path:lineno``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: not a finite number: {text.strip()!r}")
    return value
