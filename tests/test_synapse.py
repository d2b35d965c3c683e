"""Parallel synapse: vectorized switching, relaxation, traces, oracles.

A synapse is its expiry array: these tests drive it with ``pulse_update`` and
read it by counting the cells whose expiry is after the read time, which is
what ON means. ``trace_counts``, the pooled chain that traces run, is held
to that kernel in law: mean, variance and lag-1 covariance over the samples.
"""

import math

import numpy as np
import pytest

from memdecide import (
    DeviceParams,
    PulseStream,
    RetentionDistribution,
    generate_periodic,
    run_trace_experiment,
    spawn_rng,
)
from memdecide.device import check_p_on
from memdecide.synapse import pulse_update, trace_counts

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
    """Pooled ON counts of ``n`` fresh cells: ``trace_counts`` at sorted ``samples``."""
    samples = np.asarray(samples, dtype=float)
    return trace_counts(n, stream.times, p_on, retention, samples, rng)


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
        with pytest.raises(ValueError, match="n_devices"):
            run_trace_experiment(0, generate_periodic(5, 10.0), 0.5, _params(),
                                 sample_rate_hz=10.0, repeats=1, master_seed=0)


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
        params = _params(i_off_uA=2.0)
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


def _manual_trace(shape, stream, p_on, retention, samples, rng):
    """Reference for ``trace_counts``: ``shape[0]`` independent ``shape[1]``-cell
    synapses as one expiry array, one pulse_update per pulse and one count per
    synapse and sample, in merged time order with a pulse first at equal times."""
    expiry = np.full(shape, -np.inf)
    pulses = list(stream.times)
    counts = np.zeros((shape[0], samples.size), dtype=np.int64)
    for i, t in enumerate(samples):
        while pulses and pulses[0] <= t:
            pulse_update(expiry, pulses.pop(0), p_on, retention, rng)
        counts[:, i] = np.count_nonzero(expiry > t, axis=1)
    return counts


def _assert_same_law(chain, kernel, z=4.0):
    """Rows of ``chain`` and ``kernel`` are independent traces. Per sample, the
    mean count, its second moment and its product with the next sample's count
    agree within ``z`` two-sample standard errors, and exactly where both are
    constant: so do the mean, the variance and the lag-1 covariance."""
    chain, kernel = chain.astype(float), kernel.astype(float)
    for name, statistic in (("mean", lambda c: c), ("second moment", lambda c: c * c),
                            ("lag-1 product", lambda c: c[:, :-1] * c[:, 1:])):
        a, b = statistic(chain), statistic(kernel)
        se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
        assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= z * se), name


# The law tests' retention laws: with sigma_log = 0 the median is off the
# 0.05 s grid, where the kernel's t_j + R > t and the chain's t - t_j < R
# can round differently at an exact tie.
_LAW_RETENTIONS = (RetentionDistribution(0.15, 0.5), RetentionDistribution(0.17, 0.0))


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
        # In law, over 600 traces of 20 cells each, at sigma_log > 0 and = 0.
        stream = PulseStream(times=np.array(pulses, dtype=float), duration_s=1.0)
        samples = np.array(samples, dtype=float)
        repeats, n, p_on = 600, 20, 0.3
        for retention in _LAW_RETENTIONS:
            rng = np.random.default_rng(5)
            chain = np.array([_trace(n, stream, p_on, retention, samples, rng)
                              for _ in range(repeats)]).reshape(repeats, samples.size)
            kernel = _manual_trace((repeats, n), stream, p_on, retention, samples, rng)
            _assert_same_law(chain, kernel)

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
        params = _params(i_off_uA=1.5, retention=RetentionDistribution(0.2, 0.5))
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
        mean = _trace(200 * 50, stream, p_on, retention, sample_times, spawn_rng(7)) / 200
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
        mean = _trace(300 * 50, stream, p_on, retention, stream.times, spawn_rng(11)) / 300
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
            averages.append(_trace(200 * 50, stream, p_on, retention, stream.times,
                                   spawn_rng(13)).mean() / 200)
        assert averages[0] < averages[1]


class TestTraceCounts:
    @pytest.mark.parametrize("retention", _LAW_RETENTIONS, ids=["sigma=0.5", "sigma=0"])
    def test_matches_pulse_update_in_law(self, retention):
        # 20 pulses at 10 Hz read at 30 Hz, through a 1 s tail: samples
        # between pulses, at or next to them, and after the last.
        stream = generate_periodic(20, 10.0)
        samples = np.arange(90) / 30.0
        repeats, n, p_on = 500, 10, 0.3
        rng = np.random.default_rng(17)
        chain = np.array([trace_counts(n, stream.times, p_on, retention, samples, rng)
                          for _ in range(repeats)])
        kernel = _manual_trace((repeats, n), stream, p_on, retention, samples, rng)
        _assert_same_law(chain, kernel)

    def test_survival_rounding_keeps_counts_non_increasing(self, rng):
        # Around median * e^(sigma * sqrt(2)), where erfc changes branch,
        # survival's last bits rise between some ages a few ulp apart. The
        # chain's bin probabilities there must still be >= 0, so that the
        # multinomial draw accepts them.
        retention = RetentionDistribution(1.0, 0.5)
        samples = math.exp(0.5 * math.sqrt(2.0)) * (1.0 + np.arange(-2000, 2000) * 2e-16)
        assert np.any(np.diff(retention.survival(samples)) > 0)
        counts = trace_counts(1000, np.array([0.0]), 1.0, retention, samples, rng)
        assert np.all(np.diff(counts) <= 0)
        assert 0 < counts[-1] <= counts[0] < 1000

    def test_pulse_update_refreshes_lit_cells_in_place(self, rng):
        # With p_on=0 exactly the ON cells are lit: each gets a fresh expiry
        # after the pulse, and every other cell is left as it was.
        expiry = np.array([[-np.inf, 2.0, -np.inf], [0.5, 1.5, 3.0]])
        before = expiry.copy()
        assert pulse_update(expiry, 1.0, 0.0, RetentionDistribution(0.2, 0.5), rng) is None
        on = before > 1.0
        assert np.all(expiry[on] > 1.0) and not np.any(expiry[on] == before[on])
        assert np.array_equal(expiry[~on], before[~on])
        # At p_on=1 every cell is lit.
        pulse_update(expiry, 1.2, 1.0, RetentionDistribution(0.2, 0.5), rng)
        assert np.all(expiry > 1.2)
        # No cell lit: nothing is written.
        before = expiry.copy()
        pulse_update(expiry, 10.0, 0.0, NO_DECAY, rng)
        assert np.array_equal(expiry, before)


class TestDeterminism:
    def test_identical_seed_identical_history(self):
        retention = RetentionDistribution(0.5, 0.5)
        stream = generate_periodic(30, 10.0)
        samples = np.linspace(0.0, 3.5, 71)
        traces = [_trace(25, stream, 0.2, retention, samples, np.random.default_rng(321))
                  for _ in range(2)]
        assert np.array_equal(traces[0], traces[1])
