"""Stimulus generators: random pulse times, periodic trains, and replay files.

A pulse stream is a sorted list of event times inside a trial window. Pulses
are instantaneous events; the synapse gives each the same switching
probability, and pulse width and shape are abstracted away.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .reports import format_rows, parse_finite, read_csv, write_csv

__all__ = [
    "TRIAL_CHUNK",
    "check_n_pulses",
    "check_duration",
    "PulseStream",
    "random_times",
    "generate_periodic",
    "write_stream_csv",
    "read_stream_csv",
]

# Trials held in memory at once, one chunk; no draw depends on it (see :mod:`memdecide.experiment`).
TRIAL_CHUNK = 256


def check_n_pulses(n_pulses: int) -> None:
    """Reject a negative pulse count, or one so large that a trial chunk's
    ``(TRIAL_CHUNK, n_pulses)`` float64 pulse-time matrix cannot exist."""
    if n_pulses < 0:
        raise ValueError(f"n_pulses must be >= 0, got {n_pulses}")
    if n_pulses > sys.maxsize // (8 * TRIAL_CHUNK):
        raise ValueError(f"n_pulses={n_pulses} is too many: a trial chunk's ({TRIAL_CHUNK}, n_pulses) "
                         f"float64 pulse-time matrix would exceed {sys.maxsize} bytes")


def check_duration(duration_s: float) -> None:
    """Reject a trial window shorter than the smallest normal float, NaN included.

    A subnormal window holds too few representable times for random_times to
    keep a row strictly sorted inside it.
    """
    if not (duration_s >= sys.float_info.min):
        raise ValueError(f"duration_s must be >= {sys.float_info.min}, got {duration_s}")


@dataclass(frozen=True)
class PulseStream:
    """Strictly sorted finite pulse times, each in [0, duration_s), a finite window
    of at least the smallest normal float (see :func:`check_duration`)."""

    times: np.ndarray
    duration_s: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if not (math.isfinite(self.duration_s) and np.isfinite(times).all()):
            raise ValueError("pulse times and duration_s must be finite")
        if times.size:
            if np.any(np.diff(times) <= 0.0):
                raise ValueError("pulse times must be strictly increasing")
            if times[0] < 0.0 or times[-1] >= self.duration_s:
                raise ValueError("pulse times must lie in [0, duration_s)")
        check_duration(self.duration_s)


def random_times(n_pulses: int, duration_s: float, m: int, rng: np.random.Generator) -> np.ndarray:
    """``m`` independent random streams, one per row of an ``(m, n_pulses)`` matrix.

    A row is ``n_pulses`` uniform times on [0, duration_s), sorted; all rows'
    uniforms are drawn at once, in C order. The caller applies the stream rules.
    """
    times = np.sort(rng.random((m, n_pulses)) * duration_s, axis=1)
    # Exact collisions of uniform draws are measure-zero but representable in
    # binary64; nudge duplicates up by one ulp so every row stays strict.
    # Column by column, so each row gets the same nudges as on its own.
    if n_pulses > 1 and np.any(np.diff(times, axis=1) <= 0.0):
        for i in range(1, n_pulses):
            prev, cur = times[:, i - 1], times[:, i]
            dup = cur <= prev
            cur[dup] = np.nextafter(prev[dup], np.inf)
    return times


def generate_periodic(n_pulses: int, rate_hz: float, start_s: float = 0.0) -> PulseStream:
    """Regular train: ``start_s + k / rate_hz`` for k = 0 .. n_pulses-1.

    The window extends one period past the last pulse so the final event lies
    strictly inside it.
    """
    if not (rate_hz > 0.0):
        raise ValueError(f"rate_hz must be > 0, got {rate_hz}")
    check_n_pulses(n_pulses)
    times = start_s + np.arange(n_pulses, dtype=float) / rate_hz
    duration = start_s + n_pulses / rate_hz
    if duration <= 0.0:
        duration = 1.0 / rate_hz
    return PulseStream(times=times, duration_s=duration)


def write_stream_csv(stream: PulseStream, path) -> None:
    """Serialize a stream for replay: its window as a comment, then one ``t_s`` column."""
    write_csv(path, ["t_s"], format_rows(stream.times), [f"duration_s={stream.duration_s!r}"])


def read_stream_csv(path) -> PulseStream:
    """Read a replay file written by :func:`write_stream_csv`.

    The file needs the ``t_s`` header and a ``# duration_s=`` comment, the
    window. A row or ``duration_s`` value that is not a finite number is a
    ``ValueError`` naming ``path:line``.
    """
    comments, rows = read_csv(path, ["t_s"])
    times = [parse_finite(t, path, lineno) for lineno, (t,) in rows]
    if "duration_s" not in comments:
        raise ValueError(f"{path}: no duration_s comment")
    lineno, text = comments["duration_s"]
    duration = parse_finite(text, path, lineno)
    try:
        return PulseStream(times=np.asarray(times, dtype=float), duration_s=duration)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
