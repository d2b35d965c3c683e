"""Multi-device parallel synapse.

N cells share their electrodes, so every pulse reaches all of them at once
and each OFF cell switches independently with the pulse's switching
probability ``p_on``, the only property of a pulse that a synapse sees. The
synaptic weight is the number of cells currently ON; the summed current is
``count_on * i_on + (N - count_on) * i_off``
(:meth:`memdecide.device.DeviceParams.current_uA`). Between pulses the
weight only decays, as individual filaments dissolve.

The whole state is one vector of filament-expiry times: a cell is ON at time
``t`` if and only if its expiry is after ``t`` (``-inf`` for a cell that has
never switched). :func:`pulse_update` is the one state-update kernel and the
definition of the model. It works on an expiry array of any shape
``(..., N)``, so the same code drives one synapse or a batch of independent
synapses; :func:`trace_counts` is the one trace path, for one synapse or a
batch of repeats. Trials do not run it: they need only the end-of-window
count, whose law under this kernel :func:`memdecide.network.on_probability`
gives in closed form. The cell model and its parameters are described in
:mod:`memdecide.device`.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import numpy as np

from .device import RetentionDistribution

__all__ = ["TRIAL_CHUNK", "Trace", "check_n_devices", "pulse_update", "trace_counts"]

# Trials or trace repeats run at once, one chunk (see :mod:`memdecide.experiment`);
# a chunk of trace repeats is one (TRIAL_CHUNK, N) expiry array.
TRIAL_CHUNK = 256


def check_n_devices(n: int) -> None:
    """Reject ``n`` below 1, or so large that a trace chunk's ``(TRIAL_CHUNK, n)``
    float64 expiry array cannot exist (trials allocate nothing per cell)."""
    if n < 1:
        raise ValueError(f"a synapse needs at least one device, got n={n}")
    if n > sys.maxsize // (8 * TRIAL_CHUNK):
        raise ValueError(f"n={n} devices is too many: a trace's ({TRIAL_CHUNK}, n) float64 "
                         f"expiry array would exceed {sys.maxsize} bytes")


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
) -> np.ndarray:
    """Deliver one pulse to every cell of ``expiry`` (shape ``(..., N)``), in place.

    ``t`` is a scalar, or one pulse time per row (shape ``expiry.shape[:-1]``).
    A cell whose expiry is at or before its row's ``t`` is OFF. Every OFF cell
    switches with probability ``p_on``, and every lit cell (ON, or just
    switched) gets the expiry ``t + retention`` (refresh, not stack). Draws:
    one uniform per cell, then one retention time per lit cell, both in C
    order. Returns the expiries written, one per lit cell in C order; every
    other cell is OFF from its row's ``t`` on.
    """
    t = np.asarray(t, dtype=float)
    lit = (expiry > t[..., np.newaxis]) | (rng.random(expiry.shape) < p_on)
    k = int(np.count_nonzero(lit))
    if not k:
        return np.empty(0)
    idx = np.flatnonzero(lit)
    # One time per row (batched trials): gather each lit cell's row time.
    row_t = t.reshape(-1)[idx // expiry.shape[-1]] if t.ndim else t
    written = row_t + retention.sample(rng, k)
    np.put(expiry, idx, written)
    return written


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
    before a sample at the same time). Only the cells that pulse lit can be
    ON there, since every other expiry is at or before ``t_j``, so the reads
    count the sorted expiries it returned that lie after each sample. The
    samples before the first pulse read the whole array, which may come in
    with cells already ON.
    """
    counts = np.empty(samples.size, dtype=np.int64)
    bounds = [0, *np.searchsorted(samples, pulse_times, side="left"), samples.size]
    live = expiry
    for j, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        if j:
            live = pulse_update(expiry, pulse_times[j - 1], p_on, retention, rng)
        off = np.searchsorted(np.sort(live, axis=None), samples[start:stop], side="right")
        counts[start:stop] = live.size - off
    return counts
