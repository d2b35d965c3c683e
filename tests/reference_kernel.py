"""Per-cell reference kernel, an oracle independent of memdecide.

A cell's only state is the time its filament dissolves: it is ON at time
``t`` if and only if that expiry is after ``t`` (``-inf`` for a cell that has
never switched). A pulse at ``t`` switches every OFF cell with probability
``p_on``, and every lit cell (ON, or just switched) gets the expiry ``t + R``
with a fresh lognormal retention time ``R = median * exp(sigma * z)``, ``z``
standard normal (refresh, not stack). This is the model that memdecide's
trace chain and trial sampler draw the ON counts of; the tests hold them to
this kernel in law. Built on numpy only.

The kernel stores the sum ``t_j + R`` and later tests ``expiry > t``; the
chain, the trial sampler and ``exact_accuracy`` test the age instead, ``t -
t_j < R``. The two agree except where the sum rounds across a tie that the
exact age does not reach, which a continuous ``R`` hits with probability
zero. At ``sigma = 0`` it can be hit: ``1.9 + 0.15`` rounds to ``2.05``,
while ``2.05 - 1.9`` is ``0.14999999999999991``, so a cell with a 0.15 s
filament lit at 1.9 s reads OFF at 2.05 s here and ON in the age form. This
is why the law tests at ``sigma = 0`` place the median off their sample grid.
"""

import numpy as np


def retention_times(rng, median, sigma, size=None):
    """Lognormal retention time(s) in seconds: ``median * exp(sigma * z)``, ``z`` standard normal."""
    z = rng.standard_normal(size)
    return median * np.exp(sigma * z)


def pulse_update(expiry, t, p_on, median, sigma, rng):
    """Deliver one pulse at time ``t`` to every cell of ``expiry`` (shape ``(..., N)``), in place.

    Draws: one uniform per cell, then one retention time per lit cell, both
    in C order. Every cell that is not lit is OFF from ``t`` on.
    """
    lit = (expiry > t) | (rng.random(expiry.shape) < p_on)
    idx = np.flatnonzero(lit)
    np.put(expiry, idx, t + retention_times(rng, median, sigma, idx.size))


def on_counts(shape, pulse_times, p_on, median, sigma, reads, rng):
    """ON counts of ``shape[0]`` fresh ``shape[1]``-cell synapses at each sorted read time.

    Returns a ``(shape[0], len(reads))`` array. Pulses and reads run in
    merged time order, a pulse first at an equal time; a pulse after the
    last read is not delivered.
    """
    expiry = np.full(shape, -np.inf)
    counts = np.zeros((shape[0], len(reads)), dtype=np.int64)
    j = 0
    for i, t in enumerate(reads):
        while j < len(pulse_times) and pulse_times[j] <= t:
            pulse_update(expiry, pulse_times[j], p_on, median, sigma, rng)
            j += 1
        counts[:, i] = np.count_nonzero(expiry > t, axis=1)
    return counts
