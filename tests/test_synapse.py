"""Parallel synapse: vectorized switching, relaxation, traces, oracles."""

import math

import numpy as np
import pytest

from memdecide import (
    DeviceParams,
    PulseStream,
    RetentionDistribution,
    Synapse,
    TimeOrderError,
    expected_on_count_no_decay,
    generate_periodic,
    spawn_rng,
)

P_CERTAIN = 1.0
P_NEVER = 0.0

# Retention far beyond any trial horizon: relaxation effectively disabled.
NO_DECAY = RetentionDistribution(median_s=1e9, sigma_log=0.0)


def _params(retention=NO_DECAY, **kw):
    return DeviceParams(i_cc_uA=300.0, retention=retention, **kw)


def _final_counts(n, p, k, trials, seed):
    """Final ON counts after k pulses with decay disabled, one per trial."""
    params = _params()
    counts = np.empty(trials, dtype=np.int64)
    for i in range(trials):
        rng = spawn_rng(seed, i)
        syn = Synapse(n, params)
        for j in range(k):
            syn.stimulate(0.1 * j, p, rng)
        counts[i], _ = syn.read(0.1 * k)
    return counts


class TestConstruction:
    @pytest.mark.parametrize("n", [1, 50, 100])
    def test_all_off_at_start(self, n):
        syn = Synapse(n, _params())
        assert syn.n == n
        assert syn.count_on() == 0
        assert syn.last_event_time == 0.0
        assert syn.read(0.0) == (0, 0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Synapse(0, _params())


class TestStimulate:
    def test_certain_switching(self, rng):
        syn = Synapse(10, _params())
        syn.stimulate(0.0, P_CERTAIN, rng)
        assert syn.count_on() == 10

    def test_impossible_switching(self, rng):
        syn = Synapse(10, _params())
        syn.stimulate(0.0, P_NEVER, rng)
        assert syn.count_on() == 0

    def test_time_order_enforced(self, rng):
        syn = Synapse(5, _params())
        syn.stimulate(1.0, P_CERTAIN, rng)
        with pytest.raises(TimeOrderError):
            syn.stimulate(0.5, P_CERTAIN, rng)
        with pytest.raises(TimeOrderError):
            syn.read(0.5)

    @pytest.mark.parametrize("p_on", [-0.1, 1.1, math.nan])
    def test_rejects_p_on_out_of_range(self, p_on, rng):
        syn = Synapse(5, _params())
        with pytest.raises(ValueError, match="p_on"):
            syn.stimulate(1.0, p_on, rng)
        assert syn.last_event_time == 0.0

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
        syn = Synapse(10, _params(retention=RetentionDistribution(1.0, 0.5)))
        syn.stimulate(0.0, P_CERTAIN, rng)
        reads = [syn.read(t) for t in np.linspace(0.0, 10.0, 10_001)]
        counts = [count for count, _ in reads]
        assert counts[0] == 10 and counts[-1] == 0
        assert 3 in counts
        assert all(current == count * 300.0 for count, current in reads)

    def test_leakage_included(self, rng):
        syn = Synapse(10, _params(i_on_uA=300.0, i_off_uA=2.0))
        syn.stimulate(0.0, P_CERTAIN, rng)
        count, current = syn.read(0.0)
        assert count == 10 and current == 10 * 300.0
        # All retention draws are finite, so far in the future everything is
        # off and only leakage remains.
        count, current = syn.read(1e12)
        assert count == 0 and current == 10 * 2.0

    def test_full_relaxation(self, rng):
        syn = Synapse(10, _params(retention=RetentionDistribution(0.01, 0.5)))
        syn.stimulate(0.0, P_CERTAIN, rng)
        assert syn.read(5.0) == (0, 0.0)


def _manual_trace(syn, stream, p_on, samples, rng):
    """Reference for ``Synapse.trace``: one stimulate per pulse, one read per
    sample, in merged time order with a pulse first at equal times."""
    pulses = list(stream.times)
    counts, currents = [], []
    for t in samples:
        while pulses and pulses[0] <= t:
            syn.stimulate(pulses.pop(0), p_on, rng)
        count, current = syn.read(t)
        counts.append(count)
        currents.append(current)
    for t in pulses:
        syn.stimulate(t, p_on, rng)
    return np.array(counts, dtype=np.int64), np.array(currents, dtype=float)


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
        params = _params(i_off_uA=1.5, retention=RetentionDistribution(0.15, 0.5))
        stream = PulseStream(times=np.array(pulses, dtype=float), duration_s=1.0)
        samples = np.array(samples, dtype=float)
        p_on = 0.3
        batched, manual = Synapse(20, params), Synapse(20, params)
        trace = batched.trace(stream, p_on, samples, np.random.default_rng(5))
        counts, currents = _manual_trace(manual, stream, p_on, samples, np.random.default_rng(5))
        assert trace.count_on.dtype == counts.dtype
        assert np.array_equal(trace.count_on, counts)
        assert np.array_equal(trace.current_uA, currents)
        assert batched.last_event_time == manual.last_event_time
        # Same state afterwards: equal reads at later times.
        later = [manual.last_event_time + d for d in (0.0, 0.05, 0.2, 1.0)]
        assert [batched.read(t) for t in later] == [manual.read(t) for t in later]

    def test_time_order_enforced(self, rng):
        syn = Synapse(5, _params())
        syn.stimulate(1.0, P_CERTAIN, rng)
        stream = PulseStream(times=np.array([1.5]), duration_s=2.0)
        with pytest.raises(TimeOrderError):
            syn.trace(stream, P_CERTAIN, np.array([0.5, 1.6]), rng)
        early = PulseStream(times=np.array([0.5]), duration_s=2.0)
        with pytest.raises(TimeOrderError):
            syn.trace(early, P_CERTAIN, np.array([1.6]), rng)
        assert syn.last_event_time == 1.0

    def test_empty_stream_flat_zero(self, rng):
        syn = Synapse(10, _params())
        empty = PulseStream(times=np.array([]), duration_s=1.0)
        trace = syn.trace(empty, P_CERTAIN, np.linspace(0.0, 1.0, 11), rng)
        assert np.all(trace.count_on == 0)
        assert np.all(trace.current_uA == 0.0)

    def test_pulse_applied_before_coincident_sample(self, rng):
        syn = Synapse(10, _params())
        stream = PulseStream(times=np.array([0.5]), duration_s=1.0)
        trace = syn.trace(stream, P_CERTAIN, np.array([0.5]), rng)
        assert trace.count_on[0] == 10

    def test_counts_non_increasing_between_pulses(self, rng):
        syn = Synapse(50, _params(retention=RetentionDistribution(0.3, 0.5)))
        stream = PulseStream(times=np.array([0.0]), duration_s=0.1)
        trace = syn.trace(stream, P_CERTAIN, np.linspace(0.0, 2.0, 201), rng)
        assert np.all(np.diff(trace.count_on) <= 0)

    def test_current_identity_at_every_sample(self, rng):
        syn = Synapse(20, _params(i_on_uA=300.0, i_off_uA=1.5,
                                  retention=RetentionDistribution(0.2, 0.5)))
        stream = generate_periodic(20, 10.0)
        trace = syn.trace(stream, 0.3, np.linspace(0.0, 3.0, 61), rng)
        expected = trace.count_on * 300.0 + (20 - trace.count_on) * 1.5
        assert np.array_equal(trace.current_uA, expected)

    def test_rejects_unsorted_samples(self, rng):
        syn = Synapse(5, _params())
        stream = generate_periodic(5, 10.0)
        with pytest.raises(ValueError):
            syn.trace(stream, P_CERTAIN, np.array([0.2, 0.1]), rng)

    @pytest.mark.parametrize("p_on", [-0.1, 1.1, math.nan])
    def test_rejects_p_on_out_of_range(self, p_on, rng):
        syn = Synapse(5, _params())
        with pytest.raises(ValueError, match="p_on"):
            syn.trace(generate_periodic(5, 10.0), p_on, np.array([0.1]), rng)
        assert syn.last_event_time == 0.0

    @pytest.mark.parametrize("p_on", [0.0, 1.0])
    def test_accepts_p_on_bounds(self, p_on, rng):
        trace = Synapse(5, _params()).trace(generate_periodic(5, 10.0), p_on, np.array([0.5]), rng)
        assert trace.count_on.tolist() == [5 * p_on]

    def test_saturation_at_high_probability(self):
        # 50 pulses at 10 Hz with p=0.10 and long retention: the mean trace
        # should hit 95% of the device count well before the train ends.
        stream = generate_periodic(50, 10.0)
        params = _params(retention=RetentionDistribution(1e3, 0.5))
        p_on = 0.10
        sample_times = stream.times
        total = np.zeros(sample_times.size)
        for r in range(200):
            trace = Synapse(50, params).trace(stream, p_on, sample_times, spawn_rng(7, r))
            total += trace.count_on
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
        params = _params(retention=RetentionDistribution(1e3, 0.5))
        p_on = 0.01
        total = np.zeros(stream.times.size)
        for r in range(300):
            trace = Synapse(50, params).trace(stream, p_on, stream.times, spawn_rng(11, r))
            total += trace.count_on
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
            params = _params(retention=RetentionDistribution(median, 0.5))
            acc = 0.0
            for r in range(200):
                trace = Synapse(50, params).trace(stream, p_on, stream.times, spawn_rng(13, r))
                acc += trace.count_on.mean()
            averages.append(acc / 200)
        assert averages[0] < averages[1]


class TestDeterminism:
    def test_identical_seed_identical_history(self):
        params = _params(retention=RetentionDistribution(0.5, 0.5))
        stream = generate_periodic(30, 10.0)
        samples = np.linspace(0.0, 3.5, 71)
        traces = [
            Synapse(25, params).trace(stream, 0.2, samples,
                                      np.random.default_rng(321))
            for _ in range(2)
        ]
        assert np.array_equal(traces[0].count_on, traces[1].count_on)
        assert np.array_equal(traces[0].current_uA, traces[1].current_uA)
