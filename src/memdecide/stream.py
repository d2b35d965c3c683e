"""Stimulus generators: random pulse streams and periodic trains.

A pulse stream is a sorted list of event times inside a trial window. Pulses
are instantaneous events; the synapse gives each the same switching
probability, and pulse width and shape are abstracted away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StreamSpec",
    "PulseStream",
    "generate_random",
    "random_times",
    "generate_periodic",
    "write_stream_csv",
    "read_stream_csv",
    "parse_finite",
]


@dataclass(frozen=True)
class StreamSpec:
    """Pulse count and trial window for one stimulus stream."""

    n_pulses: int
    duration_s: float

    def __post_init__(self):
        if self.n_pulses < 0:
            raise ValueError(f"n_pulses must be >= 0, got {self.n_pulses}")
        if not (self.duration_s > 0.0):
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")


@dataclass(frozen=True)
class PulseStream:
    """Strictly sorted finite pulse times, each in [0, duration_s), a finite window."""

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

    @property
    def n_pulses(self) -> int:
        return int(self.times.size)


def generate_random(spec: StreamSpec, rng: np.random.Generator) -> PulseStream:
    """``spec.n_pulses`` times drawn i.i.d. uniform on [0, duration), sorted.

    The pulse count is deterministic; only the placement is random. This is
    the one-row case of :func:`random_times` and draws the same numbers.
    """
    return PulseStream(times=random_times(spec, 1, rng)[0], duration_s=spec.duration_s)


def random_times(spec: StreamSpec, m: int, rng: np.random.Generator) -> np.ndarray:
    """``m`` independent streams of ``spec`` as an ``(m, n_pulses)`` matrix.

    All ``m * n_pulses`` uniforms are drawn at once, in C order, scaled to
    the window and sorted per row.
    """
    times = np.sort(rng.random((m, spec.n_pulses)) * spec.duration_s, axis=1)
    # Exact collisions of uniform draws are measure-zero but representable in
    # binary64; nudge duplicates up by one ulp so every row stays strict.
    # Column by column, so each row gets the same nudges as on its own.
    if spec.n_pulses > 1 and np.any(np.diff(times, axis=1) <= 0.0):
        for i in range(1, spec.n_pulses):
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
    if n_pulses < 0:
        raise ValueError(f"n_pulses must be >= 0, got {n_pulses}")
    times = start_s + np.arange(n_pulses, dtype=float) / rate_hz
    duration = start_s + n_pulses / rate_hz
    if duration <= 0.0:
        duration = 1.0 / rate_hz
    return PulseStream(times=times, duration_s=duration)


def write_stream_csv(stream: PulseStream, path) -> None:
    """Serialize a stream for replay: one ``t_s`` column plus the window."""
    lines = [f"# duration_s={stream.duration_s!r}", "t_s"]
    lines.extend(repr(float(t)) for t in stream.times)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_finite(text: str, path, lineno: int) -> float:
    """``text`` as a finite float; anything else is a ``ValueError`` naming ``path:lineno``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: not a finite number: {text.strip()!r}")
    return value


def read_stream_csv(path, duration_s: float | None = None) -> PulseStream:
    """Read a replay file written by :func:`write_stream_csv`.

    The window comes from the ``# duration_s=`` comment unless overridden. A
    row or ``duration_s`` value that is not a finite number is a
    ``ValueError`` naming ``path:line``.
    """
    times = []
    file_duration = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line.lstrip("# ").partition("=")
                if key.strip() == "duration_s":
                    file_duration = parse_finite(value, path, lineno)
            elif line not in ("", "t_s"):
                times.append(parse_finite(line, path, lineno))
    duration = duration_s if duration_s is not None else file_duration
    if duration is None:
        raise ValueError(f"{path}: no duration_s comment and no override given")
    try:
        return PulseStream(times=np.asarray(times, dtype=float), duration_s=duration)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
