"""Multi-device parallel synapse.

N cells share their electrodes, so every pulse reaches all of them at once
and each OFF cell switches independently with the pulse's switching
probability ``p_on``, the only property of a pulse that a synapse sees. The
synaptic weight is the number of cells currently ON; the summed current is
``count_on * i_on + (N - count_on) * i_off``. Between pulses the weight only
decays, as individual filaments dissolve.

The whole state is one vector of filament-expiry times: a cell is ON at time
``t`` if and only if its expiry is after ``t`` (``-inf`` for a cell that has
never switched). :func:`pulse_update` is the one state-update kernel. It works
on an expiry array of any shape ``(..., N)``, so the same code drives one
synapse or a ``(trials, N)`` batch of independent synapses, which is what
makes Monte Carlo sweeps cheap; :func:`trace_counts` is the one trace path,
for one synapse or a batch of repeats. The cell model and its parameters are
described in :mod:`memdecide.device`.

A ``Synapse`` is a self-contained mutable value. It is not safe for
concurrent mutation, but distinct instances may be driven in parallel.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .device import DeviceParams, RetentionDistribution, check_p_on
from .errors import TimeOrderError
from .stream import PulseStream

__all__ = ["Synapse", "Trace", "pulse_update", "trace_counts"]


class Trace(NamedTuple):
    """Sampled time series of a synapse: times, ON counts, currents (µA)."""

    times: np.ndarray
    count_on: np.ndarray
    current_uA: np.ndarray


def pulse_update(
    expiry: np.ndarray,
    t,
    p_on,
    retention: RetentionDistribution,
    rng: np.random.Generator,
) -> None:
    """Deliver one pulse to every cell of ``expiry`` (shape ``(..., N)``), in place.

    ``t`` is a scalar, or one pulse time per row (shape ``expiry.shape[:-1]``).
    A cell whose expiry is at or before its row's ``t`` is OFF. Every OFF cell
    switches with probability ``p_on``, and every lit cell (ON, or just
    switched) gets the expiry ``t + retention`` (refresh, not stack). Draws:
    one uniform per cell, then one retention time per lit cell, both in C
    order.
    """
    t = np.asarray(t, dtype=float)
    lit = (expiry > (t[..., np.newaxis] if t.ndim else t)) | (rng.random(expiry.shape) < p_on)
    k = int(np.count_nonzero(lit))
    if not k:
        return
    # Two write paths, chosen by the shape of t, because neither is the faster
    # one for both callers (measured on the trace and sweep benchmarks). One
    # time per row (batched trials): gather each lit cell's row time by flat
    # index, which beats broadcasting the times over the mask. A scalar time
    # (one synapse, traces): a plain mask assignment, a few µs cheaper a call.
    if t.ndim:
        idx = np.flatnonzero(lit)
        np.put(expiry, idx, t.reshape(-1)[idx // expiry.shape[-1]] + retention.sample(rng, k))
    else:
        expiry[lit] = t + retention.sample(rng, k)


def trace_counts(
    expiry: np.ndarray,
    pulse_times: np.ndarray,
    p_on,
    retention: RetentionDistribution,
    samples: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Drive ``expiry`` (shape ``(m, N)``) with ``pulse_times``; read it at ``samples``.

    Returns the ON count summed over the ``m`` rows at each sorted sample
    time. Pulse ``j`` is one :func:`pulse_update` at the scalar time ``t_j``;
    then the samples in ``[t_j, t_{j+1})`` are read at once (a pulse comes
    before a sample at the same time) by counting the expiries after each
    sample in the sorted flattened array, in O(m*N) memory.
    """
    counts = np.empty(samples.size, dtype=np.int64)
    bounds = [0, *np.searchsorted(samples, pulse_times, side="left"), samples.size]
    for j, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        if j:
            pulse_update(expiry, pulse_times[j - 1], p_on, retention, rng)
        off = np.searchsorted(np.sort(expiry, axis=None), samples[start:stop], side="right")
        counts[start:stop] = expiry.size - off
    return counts


class Synapse:
    """N identically parameterized cells driven and read as one unit."""

    def __init__(self, n: int, params: DeviceParams):
        if n < 1:
            raise ValueError(f"a synapse needs at least one device, got n={n}")
        self.params = params
        self._expiry = np.full(n, -np.inf)
        self.last_event_time = 0.0

    @property
    def n(self) -> int:
        return int(self._expiry.size)

    def count_on(self) -> int:
        """Cells ON as of the last processed event."""
        return int(np.count_nonzero(self._expiry > self.last_event_time))

    def _check_time(self, t: float) -> None:
        if t < self.last_event_time:
            raise TimeOrderError(
                f"event at t={t} precedes last event time {self.last_event_time}"
            )

    def stimulate(self, t: float, p_on: float, rng: np.random.Generator) -> "Synapse":
        """Deliver one pulse at time ``t`` to all cells: :func:`pulse_update`."""
        check_p_on(p_on)
        self._check_time(t)
        pulse_update(self._expiry, t, p_on, self.params.retention, rng)
        self.last_event_time = t
        return self

    def read(self, t: float) -> tuple[int, float]:
        """Return ``(count_on, current_uA)`` at ``t``; only advances the clock."""
        self._check_time(t)
        self.last_event_time = t
        count = int(np.count_nonzero(self._expiry > t))
        current = count * self.params.i_on_uA + (self.n - count) * self.params.i_off_uA
        return count, current

    def trace(
        self,
        stream: PulseStream,
        p_on: float,
        sample_times,
        rng: np.random.Generator,
    ) -> Trace:
        """Drive the synapse with ``stream`` and sample it at ``sample_times``.

        The one-row view of :func:`trace_counts`: a pulse is applied before a
        sample at an equal time (a read at the moment of a spike sees its
        effect). Returns one record per sample time.
        """
        check_p_on(p_on)
        samples = np.asarray(sample_times, dtype=float)
        if samples.size and np.any(np.diff(samples) < 0.0):
            raise ValueError("sample_times must be sorted ascending")
        events = np.concatenate([stream.times, samples])
        if events.size:
            self._check_time(events.min())
            self.last_event_time = float(events.max())
        counts = trace_counts(
            self._expiry[np.newaxis], stream.times, p_on, self.params.retention, samples, rng
        )
        currents = counts * self.params.i_on_uA + (self.n - counts) * self.params.i_off_uA
        return Trace(times=samples, count_on=counts, current_uA=currents)
