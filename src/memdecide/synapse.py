"""Multi-device parallel synapse.

N cells share their electrodes, so every pulse reaches all of them at once
and each OFF cell switches independently with the pulse's switching
probability ``p_on``, the only property of a pulse that a synapse sees. The
synaptic weight is the number of cells currently ON; the summed current is
``count_on * i_cc + (N - count_on) * i_off``
(:meth:`memdecide.device.DeviceParams.current_uA`). Between pulses the
weight only decays, as individual filaments dissolve.

A cell is ON at time ``t`` if and only if its filament-expiry time is after
``t`` (``-inf`` for a cell that has never switched). :func:`pulse_update`,
one pulse over an expiry array of any shape ``(..., N)``, is the one
state-update kernel and the definition of the model; the tests hold the
commands to it in law. Neither command runs it: a pulse gives every lit cell
a fresh retention time, so after it only the number of lit cells matters.
Traces draw that number as one chain (:func:`trace_counts`), and trials the
end-of-window count (:mod:`memdecide.network`). The cell model and its
parameters are described in :mod:`memdecide.device`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .device import RetentionDistribution

__all__ = ["Trace", "pulse_update", "trace_counts"]


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

    The kernel stores the sum ``t_j + R`` and later tests ``expiry > t``;
    :func:`trace_counts`, :func:`memdecide.network.on_probability` and the
    exact oracles test the age instead, ``t - t_j < R``. The two agree
    except where the sum rounds across a tie that the exact age does not
    reach, which a continuous ``R`` hits with probability zero. At
    ``sigma_log = 0`` it can be hit: ``1.9 + 0.15`` rounds to ``2.05``, while
    ``2.05 - 1.9`` is ``0.14999999999999991``, so a cell with a 0.15 s
    filament lit at 1.9 s reads OFF at 2.05 s here and ON in the age form.
    This is why the law tests that hold the chain to this kernel at
    ``sigma_log = 0`` place the median off their sample grid.
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
