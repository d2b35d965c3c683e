"""Parallel synapse: vectorized switching, relaxation, traces, oracles.

A synapse is its expiry array: these tests drive it with ``pulse_update`` and
read it with ``trace_counts`` (or, for single reads, count the cells whose
expiry is after the read time, which is what ON means).
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memdecide import (
    DeviceParams,
    PulseStream,
    RetentionDistribution,
    generate_periodic,
    run_trace_experiment,
    spawn_rng,
)
from memdecide.device import check_p_on
from memdecide.synapse import TRIAL_CHUNK, check_n_devices, pulse_update, trace_counts

from exact_accuracy import expected_on_count_no_decay

P_CERTAIN = 1.0
P_NEVER = 0.0

# Retention far beyond any trial horizon: relaxation effectively disabled.
NO_DECAY = RetentionDistribution(median_s=1e9, sigma_log=0.0)


def _params(retention=NO_DECAY, **kw):
    return DeviceParams(i_cc_uA=300.0, retention=retention, **kw)


def _read(expiry, params, t):
    """``(count_on, current_uA)`` of one synapse's expiry array at ``t``."""
    count = int(np.count_nonzero(expiry > t))
    return count, params.current_uA(count, expiry.size)


def _trace(n, stream, p_on, retention, samples, rng):
    """ON counts of a fresh ``n``-cell synapse: ``trace_counts`` on a ``(1, n)`` array."""
    samples = np.asarray(samples, dtype=float)
    return trace_counts(np.full((1, n), -np.inf), stream.times, p_on, retention, samples, rng)


def _final_counts(n, p, k, trials, seed):
    """Final ON counts after k pulses with decay disabled, one per trial."""
    counts = np.empty(trials, dtype=np.int64)
    for i in range(trials):
        rng = spawn_rng(seed, i)
        expiry = np.full(n, -np.inf)
        for j in range(k):
            pulse_update(expiry, 0.1 * j, p, NO_DECAY, rng)
        counts[i] = np.count_nonzero(expiry > 0.1 * k)
    return counts


class TestConstruction:
    @pytest.mark.parametrize("n", [1, 50, 100])
    def test_all_off_at_start(self, n, rng):
        expiry = np.full(n, -np.inf)
        assert _read(expiry, _params(), 0.0) == (0, 0.0)
        no_pulses = PulseStream(times=np.array([]), duration_s=1.0)
        assert _trace(n, no_pulses, P_CERTAIN, NO_DECAY, [0.0], rng).tolist() == [0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_n_devices(0)

    def test_cell_count_bounded_by_one_chunk_array(self):
        # The largest count whose (TRIAL_CHUNK, n) float64 array numpy can
        # describe passes; one more is rejected before anything is allocated.
        largest = sys.maxsize // (8 * TRIAL_CHUNK)
        check_n_devices(largest)
        with pytest.raises(ValueError, match="too many"):
            check_n_devices(largest + 1)
        with pytest.raises(ValueError, match="array is too big"):
            np.empty((TRIAL_CHUNK, largest + 1))


class TestStimulate:
    def test_certain_switching(self, rng):
        expiry = np.full(10, -np.inf)
        pulse_update(expiry, 0.0, P_CERTAIN, NO_DECAY, rng)
        assert np.count_nonzero(expiry > 0.0) == 10

    def test_impossible_switching(self, rng):
        expiry = np.full(10, -np.inf)
        pulse_update(expiry, 0.0, P_NEVER, NO_DECAY, rng)
        assert np.count_nonzero(expiry > 0.0) == 0

    @pytest.mark.parametrize("p_on", [-0.1, 1.1, math.nan])
    def test_rejects_p_on_out_of_range(self, p_on):
        with pytest.raises(ValueError, match="p_on"):
            check_p_on(p_on)

    def test_mean_count_matches_binomial_oracle(self):
        # 50 pulses at p=0.02 with decay disabled: closed form gives
        # 50 * (1 - 0.98^50) ~= 31.79; check a 3-SE band at 2000 trials.
        n, p, k, trials = 50, 0.02, 50, 2000
        counts = _final_counts(n, p, k, trials, seed=101)
        expected = expected_on_count_no_decay(n, p, k)
        q = 1.0 - (1.0 - p) ** k
        se = math.sqrt(n * q * (1.0 - q) / trials)
        assert abs(counts.mean() - expected) < 3.0 * se

    def test_count_variance_matches_binomial(self):
        # With decay disabled the final count is Binomial(n, 1-(1-p)^k); check
        # the sample variance against the exact sampling band of s^2.
        n, p, k, trials = 10, 0.5, 3, 10_000
        counts = _final_counts(n, p, k, trials, seed=202)
        q = 1.0 - (1.0 - p) ** k
        var = n * q * (1.0 - q)
        mu4 = var * var * 3.0 + var * (1.0 - 6.0 * q * (1.0 - q))
        var_of_s2 = (mu4 - var * var * (trials - 3) / (trials - 1)) / trials
        assert abs(counts.var(ddof=1) - var) < 3.0 * math.sqrt(var_of_s2)


class TestRead:
    def test_linear_current_sum(self, rng):
        # Ten cells with lognormal retentions dissolve one by one; at every
        # read the current is the ON count times the ON current.
        params = _params(retention=RetentionDistribution(1.0, 0.5))
        expiry = np.full(10, -np.inf)
        pulse_update(expiry, 0.0, P_CERTAIN, params.retention, rng)
        reads = [_read(expiry, params, t) for t in np.linspace(0.0, 10.0, 10_001)]
        counts = [count for count, _ in reads]
        assert counts[0] == 10 and counts[-1] == 0
        assert 3 in counts
        assert all(current == count * 300.0 for count, current in reads)

    def test_leakage_included(self, rng):
        params = _params(i_on_uA=300.0, i_off_uA=2.0)
        expiry = np.full(10, -np.inf)
        pulse_update(expiry, 0.0, P_CERTAIN, params.retention, rng)
        count, current = _read(expiry, params, 0.0)
        assert count == 10 and current == 10 * 300.0
        # All retention draws are finite, so far in the future everything is
        # off and only leakage remains.
        count, current = _read(expiry, params, 1e12)
        assert count == 0 and current == 10 * 2.0

    def test_full_relaxation(self, rng):
        params = _params(retention=RetentionDistribution(0.01, 0.5))
        expiry = np.full(10, -np.inf)
        pulse_update(expiry, 0.0, P_CERTAIN, params.retention, rng)
        assert _read(expiry, params, 5.0) == (0, 0.0)


def _manual_trace(expiry, stream, p_on, retention, samples, rng):
    """Reference for ``trace_counts`` on one ``(N,)`` synapse: one pulse_update
    per pulse and one count per sample, in merged time order with a pulse
    first at equal times."""
    pulses = list(stream.times)
    counts = []
    for t in samples:
        while pulses and pulses[0] <= t:
            pulse_update(expiry, pulses.pop(0), p_on, retention, rng)
        counts.append(np.count_nonzero(expiry > t))
    for t in pulses:
        pulse_update(expiry, t, p_on, retention, rng)
    return np.array(counts, dtype=np.int64)


class TestTrace:
    @pytest.mark.parametrize(
        "pulses,samples",
        [
            ([0.2, 0.5, 0.7], [0.0, 0.1, 0.15, 0.6]),
            ([0.1, 0.2, 0.3, 0.45], [0.1, 0.2, 0.3, 0.45]),
            ([0.1, 0.2], list(np.linspace(0.0, 3.0, 31))),
            ([], [0.0, 0.4, 2.0]),
            ([0.1, 0.4, 0.9], []),
            ([0.1, 0.5, 0.9], [0.0, 0.05, 0.3]),
        ],
        ids=["before-first-pulse", "at-pulse-times", "tail", "empty-stream",
             "no-samples", "pulses-after-last-sample"],
    )
    def test_matches_manual_stimulate_read_loop(self, pulses, samples):
        retention = RetentionDistribution(0.15, 0.5)
        stream = PulseStream(times=np.array(pulses, dtype=float), duration_s=1.0)
        samples = np.array(samples, dtype=float)
        p_on = 0.3
        batched, manual = np.full((1, 20), -np.inf), np.full(20, -np.inf)
        rngs = np.random.default_rng(5), np.random.default_rng(5)
        counts = trace_counts(batched, stream.times, p_on, retention, samples, rngs[0])
        expected = _manual_trace(manual, stream, p_on, retention, samples, rngs[1])
        assert counts.dtype == expected.dtype
        assert np.array_equal(counts, expected)
        # Same state and generator afterwards.
        assert np.array_equal(batched[0], manual)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_stimulated_synapse_matches_manual_loop(self):
        # Cells lit before the trace decay through the samples that precede
        # its first pulse, which read the whole state.
        retention = RetentionDistribution(0.15, 0.5)
        stream = PulseStream(times=np.array([0.4, 0.5, 0.8]), duration_s=1.0)
        samples = np.array([0.1, 0.12, 0.2, 0.3, 0.4, 0.45, 0.9, 1.5])
        batched, manual = np.full((1, 30), -np.inf), np.full(30, -np.inf)
        rngs = np.random.default_rng(8), np.random.default_rng(8)
        for expiry, rng in zip((batched, manual), rngs):
            pulse_update(expiry, 0.0, 0.6, retention, rng)
            pulse_update(expiry, 0.1, 0.6, retention, rng)
        counts = trace_counts(batched, stream.times, 0.3, retention, samples, rngs[0])
        expected = _manual_trace(manual, stream, 0.3, retention, samples, rngs[1])
        assert expected[0] > 0
        assert np.array_equal(counts, expected)
        assert np.array_equal(batched[0], manual)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_empty_stream_flat_zero(self, rng):
        empty = PulseStream(times=np.array([]), duration_s=1.0)
        counts = _trace(10, empty, P_CERTAIN, NO_DECAY, np.linspace(0.0, 1.0, 11), rng)
        assert np.all(counts == 0)
        assert np.all(_params().current_uA(counts, 10) == 0.0)

    def test_pulse_applied_before_coincident_sample(self, rng):
        stream = PulseStream(times=np.array([0.5]), duration_s=1.0)
        assert _trace(10, stream, P_CERTAIN, NO_DECAY, [0.5], rng)[0] == 10

    def test_counts_non_increasing_between_pulses(self, rng):
        stream = PulseStream(times=np.array([0.0]), duration_s=0.1)
        counts = _trace(50, stream, P_CERTAIN, RetentionDistribution(0.3, 0.5),
                        np.linspace(0.0, 2.0, 201), rng)
        assert np.all(np.diff(counts) <= 0)

    def test_current_identity_at_every_sample(self, rng):
        params = _params(i_on_uA=300.0, i_off_uA=1.5, retention=RetentionDistribution(0.2, 0.5))
        stream = generate_periodic(20, 10.0)
        counts = _trace(20, stream, 0.3, params.retention, np.linspace(0.0, 3.0, 61), rng)
        expected = counts * 300.0 + (20 - counts) * 1.5
        assert np.array_equal(params.current_uA(counts, 20), expected)

    @pytest.mark.parametrize("p_on", [-0.1, 1.1, math.nan])
    def test_rejects_p_on_out_of_range(self, p_on):
        with pytest.raises(ValueError, match="p_on"):
            run_trace_experiment(5, generate_periodic(5, 10.0), p_on, _params(),
                                 sample_rate_hz=10.0, repeats=1, master_seed=0)

    @pytest.mark.parametrize("p_on", [0.0, 1.0])
    def test_accepts_p_on_bounds(self, p_on, rng):
        counts = _trace(5, generate_periodic(5, 10.0), p_on, NO_DECAY, [0.5], rng)
        assert counts.tolist() == [5 * p_on]

    def test_saturation_at_high_probability(self):
        # 50 pulses at 10 Hz with p=0.10 and long retention: the mean trace
        # should hit 95% of the device count well before the train ends.
        stream = generate_periodic(50, 10.0)
        retention = RetentionDistribution(1e3, 0.5)
        p_on = 0.10
        sample_times = stream.times
        total = np.zeros(sample_times.size)
        for r in range(200):
            total += _trace(50, stream, p_on, retention, sample_times, spawn_rng(7, r))
        mean = total / 200
        crossing = np.argmax(mean >= 0.95 * 50)
        assert mean.max() >= 0.95 * 50
        assert sample_times[crossing] < sample_times[-1]

    def test_final_count_against_binomial_oracle(self):
        # p=0.01 for 50 pulses: mean final count ~= 50 * (1 - 0.99^50).
        counts = _final_counts(50, 0.01, 50, trials=2000, seed=303)
        expected = expected_on_count_no_decay(50, 0.01, 50)
        q = 1.0 - 0.99**50
        se = math.sqrt(50 * q * (1 - q) / 2000)
        assert abs(counts.mean() - expected) < 3.0 * se

    def test_low_probability_integration_is_near_linear(self):
        # Small switching probability, long retention: mean count grows almost
        # linearly with pulse index (R^2 of a straight-line fit > 0.98).
        stream = generate_periodic(50, 10.0)
        retention = RetentionDistribution(1e3, 0.5)
        p_on = 0.01
        total = np.zeros(stream.times.size)
        for r in range(300):
            total += _trace(50, stream, p_on, retention, stream.times, spawn_rng(11, r))
        mean = total / 300
        x = np.vstack([np.ones_like(stream.times), stream.times]).T
        coef, *_ = np.linalg.lstsq(x, mean, rcond=None)
        resid = mean - x @ coef
        r_squared = 1.0 - resid @ resid / np.sum((mean - mean.mean()) ** 2)
        assert r_squared > 0.98

    def test_shorter_retention_lower_plateau(self):
        # Sustained 10 Hz drive: the time-averaged count drops when retention
        # shrinks below the inter-pulse interval scale.
        stream = generate_periodic(50, 10.0)
        p_on = 0.10
        averages = []
        for median in (0.02, 2.0):
            retention = RetentionDistribution(median, 0.5)
            acc = 0.0
            for r in range(200):
                acc += _trace(50, stream, p_on, retention, stream.times, spawn_rng(13, r)).mean()
            averages.append(acc / 200)
        assert averages[0] < averages[1]


def _trace_counts_full_sort(expiry, pulse_times, p_on, retention, samples, rng):
    """Reference for ``trace_counts``: every interval sorts the whole array."""
    counts = np.empty(samples.size, dtype=np.int64)
    bounds = [0, *np.searchsorted(samples, pulse_times, side="left"), samples.size]
    for j, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        if j:
            pulse_update(expiry, pulse_times[j - 1], p_on, retention, rng)
        off = np.searchsorted(np.sort(expiry, axis=None), samples[start:stop], side="right")
        counts[start:stop] = expiry.size - off
    return counts


# Times on a 0.05 s grid, so that samples often coincide with pulses (and
# pulses with each other); some samples fall between grid points.
_GRID_TIMES = st.lists(st.integers(0, 40).map(lambda i: 0.05 * i), max_size=12).map(sorted)
_SAMPLE_TIMES = st.lists(
    st.one_of(st.integers(0, 44).map(lambda i: 0.05 * i), st.floats(0.0, 2.2)), max_size=30
).map(sorted)


class TestTraceCounts:
    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 4),
        n=st.integers(1, 12),
        pulses=_GRID_TIMES,
        samples=_SAMPLE_TIMES,
        p_on=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        median=st.sampled_from([0.01, 0.08, 0.3, 5.0]),
        sigma=st.sampled_from([0.0, 0.5, 2.0]),
        prior=st.lists(st.floats(-1.0, 2.0), min_size=48, max_size=48),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_sort_reads(self, m, n, pulses, samples, p_on, median, sigma, prior, seed):
        retention = RetentionDistribution(median, sigma)
        # Some cells come in ON (expiry after the first samples), some OFF.
        start = np.array(prior[: m * n], dtype=float).reshape(m, n)
        start[start < 0.0] = -np.inf
        pulses, samples = np.array(pulses, dtype=float), np.array(samples, dtype=float)
        fast, full = start.copy(), start.copy()
        rng_fast, rng_full = np.random.default_rng(seed), np.random.default_rng(seed)
        counts = trace_counts(fast, pulses, p_on, retention, samples, rng_fast)
        expected = _trace_counts_full_sort(full, pulses, p_on, retention, samples, rng_full)
        assert counts.dtype == expected.dtype
        assert np.array_equal(counts, expected)
        assert np.array_equal(fast, full)
        assert rng_fast.bit_generator.state == rng_full.bit_generator.state

    def test_pulse_update_returns_written_expiries(self, rng):
        # With p_on=0 exactly the ON cells are lit: they are refreshed, in C order.
        expiry = np.array([[-np.inf, 2.0, -np.inf], [0.5, 1.5, 3.0]])
        before = expiry.copy()
        written = pulse_update(expiry, 1.0, 0.0, RetentionDistribution(0.2, 0.5), rng)
        on = before > 1.0
        assert written.shape == (3,)
        assert np.array_equal(written, expiry[on])
        assert np.array_equal(expiry[~on], before[~on])
        written = pulse_update(expiry, 1.2, 1.0, RetentionDistribution(0.2, 0.5), rng)
        assert np.array_equal(written, expiry.reshape(-1))
        assert pulse_update(expiry, 10.0, 0.0, NO_DECAY, rng).size == 0


class TestDeterminism:
    def test_identical_seed_identical_history(self):
        retention = RetentionDistribution(0.5, 0.5)
        stream = generate_periodic(30, 10.0)
        samples = np.linspace(0.0, 3.5, 71)
        traces = [_trace(25, stream, 0.2, retention, samples, np.random.default_rng(321))
                  for _ in range(2)]
        assert np.array_equal(traces[0], traces[1])
