"""Multi-device parallel synapse.

N cells share their electrodes, so every pulse reaches all of them at once
and each OFF cell switches independently with the pulse's switching
probability ``p_on``, the only property of a pulse that a synapse sees. The
synaptic weight is the number of cells currently ON; the summed current is
``count_on * i_cc + (N - count_on) * i_off``
(:meth:`memdecide.device.DeviceParams.current_uA`). Between pulses the
weight only decays, as individual filaments dissolve.

A cell is ON at time ``t`` if and only if its filament-expiry time is after
``t``. A pulse gives every lit cell (ON, or just switched) a fresh retention
time, so after it only the number of lit cells matters. Traces draw that
number as one chain (:func:`trace_counts`), and trials the end-of-window
count (:mod:`memdecide.network`); the tests hold both in law to
``tests/reference_kernel.py``, which keeps every cell's expiry time. The cell
model and its parameters are described in :mod:`memdecide.device`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .device import RetentionDistribution

__all__ = ["Trace", "trace_counts"]


class Trace(NamedTuple):
    """Sampled time series of a synapse: times, ON counts, currents (µA)."""

    times: np.ndarray
    count_on: np.ndarray
    current_uA: np.ndarray


def trace_counts(
    m: int,
    pulse_times: np.ndarray,
    p_on,
    retention: RetentionDistribution,
    samples: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pooled ON count of ``m`` fresh (all-OFF) cells at each sorted sample time.

    Pulse ``j`` finds ``alive`` cells ON and lights ``lit = alive +
    binomial(m - alive, p_on)`` of them. Each is then ON at age ``a`` with
    probability ``S(a)``, the retention survival, independently, so one
    multinomial splits them over the ages of the samples in ``[t_j,
    t_{j+1})`` and the gap to pulse ``j + 1``, whose survivors are the next
    ``alive`` (binomial thinning). ``S`` is evaluated once, and a running
    minimum keeps it non-increasing within a pulse where its last bits rise.
    """
    counts = np.zeros(samples.size, dtype=np.int64)
    if not pulse_times.size:
        return counts
    starts = np.searchsorted(samples, pulse_times, side="left")
    read, on = samples[starts[0]:], counts[starts[0]:]
    last = np.searchsorted(pulse_times, read, side="right") - 1
    survive = retention.survival(np.concatenate((read - pulse_times[last], np.diff(pulse_times))))
    ages, gaps = survive[:read.size], survive[read.size:]
    bounds = [*(starts - starts[0]), read.size]
    alive = 0
    for j, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        lit = alive + int(rng.binomial(m - alive, p_on))
        # P(ON) at age 0, at each sample, at the next pulse, and never.
        s = np.minimum.accumulate(np.concatenate(([1.0], ages[start:stop], gaps[j:j + 1], [0.0])))
        bins = rng.multinomial(lit, s[:-1] - s[1:])
        on[start:stop] = lit - np.cumsum(bins[:stop - start])
        alive = int(bins[-1])
    return counts
