"""Multi-device parallel synapse.

N cells share their electrodes, so every pulse reaches all of them at once
and each OFF cell switches independently with the pulse's switching
probability ``p_on``, the only property of a pulse that a synapse sees. The
synaptic weight is the number of cells currently ON; the summed current is
``count_on * i_cc + (N - count_on) * i_off``
(:meth:`memdecide.device.DeviceParams.current_uA`). Between pulses the
weight only decays, as individual filaments dissolve.

The whole state is one vector of filament-expiry times: a cell is ON at time
``t`` if and only if its expiry is after ``t`` (``-inf`` for a cell that has
never switched). :func:`pulse_update` is the one state-update kernel and the
definition of the model. It delivers one pulse time to an expiry array of
any shape ``(..., N)``, so the same code drives one synapse or a batch of
independent synapses that share a stream. :func:`trace_counts` is the one
trace path: it builds one synapse or a batch of repeats all OFF, as devices
at rest, and drives them with one stream. Trials do not run it:
they need only the end-of-window count, whose law under this kernel
:func:`memdecide.network.on_probability` gives in closed form. The cell
model and its parameters are described in :mod:`memdecide.device`.
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
    t: float,
    p_on,
    retention: RetentionDistribution,
    rng: np.random.Generator,
) -> np.ndarray:
    """Deliver one pulse at time ``t`` to every cell of ``expiry`` (shape ``(..., N)``), in place.

    A cell whose expiry is at or before ``t`` is OFF. Every OFF cell switches
    with probability ``p_on``, and every lit cell (ON, or just switched) gets
    the expiry ``t + retention`` (refresh, not stack). Draws: one uniform per
    cell, then one retention time per lit cell, both in C order. Returns the
    expiries written, one per lit cell in C order; every other cell is OFF
    from ``t`` on.
    """
    lit = (expiry > t) | (rng.random(expiry.shape) < p_on)
    k = int(np.count_nonzero(lit))
    if not k:
        return np.empty(0)
    idx = np.flatnonzero(lit)
    written = t + retention.sample(rng, k)
    np.put(expiry, idx, written)
    return written


def trace_counts(
    shape: tuple[int, int],
    pulse_times: np.ndarray,
    p_on,
    retention: RetentionDistribution,
    samples: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Drive ``m`` fresh ``N``-cell synapses with ``pulse_times``; read them at ``samples``.

    ``shape`` is ``(m, N)``. Every cell starts OFF, as a device at rest with
    no filament does, so the samples before the first pulse read 0. Returns
    the ON count summed over the ``m`` rows at each sorted sample time. Pulse
    ``j`` is one :func:`pulse_update` at the scalar time ``t_j``; then the
    samples in ``[t_j, t_{j+1})`` are read at once (a pulse comes before a
    sample at the same time). Only the cells that pulse lit can be ON there,
    since every other expiry is at or before ``t_j``, so the reads count the
    sorted expiries it returned that lie after each sample.
    """
    expiry = np.full(shape, -np.inf)
    counts = np.zeros(samples.size, dtype=np.int64)
    bounds = [*np.searchsorted(samples, pulse_times, side="left"), samples.size]
    for t, start, stop in zip(pulse_times, bounds, bounds[1:]):
        lit = np.sort(pulse_update(expiry, t, p_on, retention, rng))
        counts[start:stop] = lit.size - np.searchsorted(lit, samples[start:stop], side="right")
    return counts
