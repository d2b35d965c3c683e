"""Exact 2AFC accuracy by conditional binomials, an oracle independent of memdecide.

Given one stream's pulse times t_1 < ... < t_K, the N cells of a synapse are
independent, so the ON count at the end of the window T is exactly
Binomial(N, pi) with

    pi  = q_K * S(T - t_K),
    q_1 = p,
    q_j = q_{j-1} * (S_j + (1 - S_j) * p) + (1 - q_{j-1}) * p,
    S_j = S(t_j - t_{j-1}),

where S(d) = Phi(-ln(d / median) / sigma) is the lognormal retention
survival (a step at ``median`` when sigma = 0; a cell is ON iff its expiry is
after the read time). The accuracy of a trial whose streams are fixed is then
P(X > Y) + P(X = Y) / 2 with X ~ Bin(N, pi_A), Y ~ Bin(N, pi_B), for
n_a > n_b. Only the stream placement is averaged by Monte Carlo, over stream
pairs drawn from this module's own generator (Rao-Blackwellisation; Casella &
Robert, Biometrika 1996). Built on numpy and scipy only.

The same recurrence gives the exact mean trace of a synapse driven by one
fixed stream (``exact_trace_mean``): a cell read at time t, whose last pulse
at or before t is pulse j, is ON with probability q_j * S(t - t_j), and ON
with probability 0 before the first pulse. With decay disabled the mean
count after k pulses has the closed form ``expected_on_count_no_decay``.
"""

import numpy as np
from scipy.stats import binom, norm


def _survival(d, median, sigma):
    if sigma == 0.0:
        return (d < median).astype(float)
    with np.errstate(divide="ignore"):  # S(0) = 1: log(0) = -inf
        return norm.sf(np.log(d / median) / sigma)


def _lit_probability(times, p, median, sigma):
    """q_j for every pulse of each row of a sorted ``(rows, K)`` pulse-time matrix."""
    q = np.empty(times.shape)
    if times.shape[1]:
        q[:, 0] = p
    for j in range(1, times.shape[1]):
        s = _survival(times[:, j] - times[:, j - 1], median, sigma)
        q[:, j] = q[:, j - 1] * (s + (1.0 - s) * p) + (1.0 - q[:, j - 1]) * p
    return q


def _on_probability(times, duration, p, median, sigma):
    """pi for each row of a sorted ``(pairs, K)`` pulse-time matrix."""
    if times.shape[1] == 0:
        return np.zeros(times.shape[0])
    q = _lit_probability(times, p, median, sigma)[:, -1]
    return q * _survival(duration - times[:, -1], median, sigma)


def exact_trace_mean(n, pulse_times, sample_times, p, median, sigma):
    """Exact mean ON count of ``n`` cells at each sample time, for one sorted stream."""
    pulse_times = np.asarray(pulse_times, dtype=float)
    sample_times = np.asarray(sample_times, dtype=float)
    q = _lit_probability(pulse_times[np.newaxis], p, median, sigma)[0]
    last = np.searchsorted(pulse_times, sample_times, side="right") - 1
    mean = np.zeros(sample_times.shape)
    hit = last >= 0
    d = sample_times[hit] - pulse_times[last[hit]]
    mean[hit] = n * q[last[hit]] * _survival(d, median, sigma)
    return mean


def expected_on_count_no_decay(n, p, k):
    """Mean ON count of ``n`` cells after ``k`` pulses with relaxation disabled.

    Each cell is ON independently with probability ``1 - (1-p)^k``, so the
    expectation is ``n * (1 - (1-p)^k)``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return n * (1.0 - (1.0 - p) ** k)


def exact_accuracy(n, n_a, n_b, duration, p, median, sigma, pairs, seed):
    """``(mean, standard error)`` of the exact accuracy over ``pairs`` stream pairs."""
    if n_a <= n_b:
        raise ValueError("the oracle scores A as the correct choice: need n_a > n_b")
    rng = np.random.default_rng(seed)
    t_a = np.sort(rng.random((pairs, n_a)) * duration, axis=1)
    t_b = np.sort(rng.random((pairs, n_b)) * duration, axis=1)
    counts = np.arange(n + 1)
    pmf_a = binom.pmf(counts, n, _on_probability(t_a, duration, p, median, sigma)[:, None])
    pmf_b = binom.pmf(counts, n, _on_probability(t_b, duration, p, median, sigma)[:, None])
    below_b = np.cumsum(pmf_b, axis=1) - pmf_b  # P(Y < x)
    per_pair = (pmf_a * below_b).sum(axis=1) + 0.5 * (pmf_a * pmf_b).sum(axis=1)
    return float(per_pair.mean()), float(per_pair.std(ddof=1) / np.sqrt(pairs))
