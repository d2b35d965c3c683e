"""Decision network: comparator, trial mechanics, symmetry, invariances."""

import math
import re

import numpy as np
import pytest

from memdecide import (
    DeviceParams,
    RetentionDistribution,
    TwoAfcConfig,
    decide,
    derive_seed,
    generate_periodic,
    run_trace_experiment,
    run_trials,
    spawn_rng,
)
from memdecide.experiment import _trial_batches
from memdecide.network import on_probability as _recurrence, stream_gaps
from memdecide.stream import random_times

from exact_accuracy import _on_probability as exact_on_probability
from reference_kernel import on_counts


def on_probability(times, duration, p_on, retention):
    """``pi`` per stream row: the gap, survival and recurrence kernels, composed as trials compose them."""
    return _recurrence(retention.survival(stream_gaps([times], duration)), p_on)


def _config(n_a=40, n_b=20, n_devices=20, duration=2.0, p_on=0.05,
            median=2.0, sigma=0.5, i_cc=270.0, i_off=0.0):
    params = DeviceParams(
        i_cc_uA=i_cc,
        retention=RetentionDistribution(median, sigma),
        i_off_uA=i_off,
    )
    return TwoAfcConfig(
        n_devices=n_devices,
        params=params,
        p_on=p_on,
        n_a=n_a,
        n_b=n_b,
        duration_s=duration,
    )


class TestDecide:
    def test_sign_comparison(self):
        for coin in ([0, 0], [1, 1]):
            choose_a, tie = decide([9, 0], [3, 1], coin)
            assert choose_a.tolist() == [True, False]
            assert tie.tolist() == [False, False]

    def test_tie_is_uniform(self):
        # A tie takes its coin (1 is A), and read_out's coins are fair.
        choose_a, tie = decide([5, 5], [5, 5], [1, 0])
        assert choose_a.tolist() == [True, False] and tie.all()
        n = 10_000
        batch = run_trials(_config(p_on=0.0), n, 3)
        assert batch.tie.all()
        a_rate = np.count_nonzero(batch.choose_a) / n
        assert abs(a_rate - 0.5) < 3.0 * math.sqrt(0.25 / n)

    def test_adjacent_large_counts_are_not_a_tie(self):
        # Both counts give one float64 current (2**59 * 270 uA), but the
        # comparator reads the counts, which differ.
        params = DeviceParams(270.0, RetentionDistribution(1.0))
        assert params.current_uA(2**59 + 1, 2**60) == params.current_uA(2**59, 2**60)
        choose_a, tie = decide([2**59 + 1], [2**59], [0])
        assert choose_a.tolist() == [True] and tie.tolist() == [False]

    def test_trials_run_at_two_to_the_sixty_cells(self):
        batch = run_trials(_config(n_devices=2**60), 50, 3)
        assert np.all((0 <= batch.count1) & (batch.count1 <= 2**60))
        decided = ~batch.tie
        assert np.array_equal(batch.choose_a[decided], (batch.count1 > batch.count2)[decided])


class TestConfigValidation:
    def test_needs_devices(self):
        params = DeviceParams(270.0, RetentionDistribution(1.0))
        with pytest.raises(ValueError):
            TwoAfcConfig(0, params, 0.6, 4, 2, 1.0)

    @pytest.mark.parametrize(
        "field,value,message",
        [("n_a", -1, "n_pulses must be >= 0, got -1"),
         ("n_b", -2, "n_pulses must be >= 0, got -2"),
         ("duration", 0.0, "duration_s must be >= "),
         ("duration", 5e-324, "duration_s must be >= "),
         ("duration", math.nan, "duration_s must be >= ")],
    )
    def test_rejects_bad_stream_settings(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            _config(**{field: value})

    @pytest.mark.parametrize("p_on", [-0.1, 1.1, math.nan])
    def test_rejects_p_on_out_of_range(self, p_on):
        with pytest.raises(ValueError, match="p_on"):
            _config(p_on=p_on)


class TestRunTrial:
    # ``run_trials(cfg, m, seed)``: the m trials of estimate_accuracy's cell, one entry each.
    def test_one_sided_certain_evidence(self):
        cfg = _config(n_a=40, n_b=0, p_on=1.0, median=1e9, sigma=0.0)
        r = run_trials(cfg, 1, 4)
        assert r.choose_a[0] and r.correct[0] and not r.tie[0]
        assert r.count1[0] == 20 and r.count2[0] == 0
        assert cfg.params.current_uA(r.count1[0], 20) == 5400.0
        assert cfg.params.current_uA(r.count2[0], 20) == 0.0

    def test_no_evidence_is_a_coin_flip(self):
        cfg = _config(p_on=0.0)
        n = 400
        r = run_trials(cfg, n, 5)
        assert r.tie.all() and not r.count1.any() and not r.count2.any()
        accuracy = np.count_nonzero(r.correct) / n
        assert abs(accuracy - 0.5) < 3.0 * math.sqrt(0.25 / n)

    def test_counts_bounded_by_devices(self):
        r = run_trials(_config(), 20, 6)
        assert np.all((0 <= r.count1) & (r.count1 <= 20) & (0 <= r.count2) & (r.count2 <= 20))

    def test_equal_streams_count_as_correct(self):
        cfg = _config(n_a=10, n_b=10)
        assert run_trials(cfg, 20, 7).correct.all()

    def test_determinism(self):
        cfg = _config()
        first = run_trials(cfg, 300, 99)
        second = run_trials(cfg, 300, 99)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_decision_scale_invariance(self):
        # With zero leakage the comparator sees only the ON-count difference,
        # so scaling the compliance (ON) current at a fixed retention must not
        # flip any seeded decision.
        base = _config(i_cc=270.0)
        scaled = _config(i_cc=2700.0)
        r1 = run_trials(base, 50, 8)
        r2 = run_trials(scaled, 50, 8)
        assert np.array_equal(r1.choose_a, r2.choose_a)
        np.testing.assert_allclose(scaled.params.current_uA(r2.count1, 20),
                                   10.0 * base.params.current_uA(r1.count1, 20))

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("n_a,n_b,n_devices,duration,p_on,median", [
        (40, 20, 20, 2.0, 0.05, 2.0), (40, 20, 20, 0.5, 0.2, 0.05),
        (40, 20, 5, 0.5, 0.06, 0.08), (20, 10, 100, 0.5, 0.05, 2.0),
    ])
    def test_time_scale_invariance(self, n_a, n_b, n_devices, duration, p_on, median, sigma):
        # Pulse times are uniforms times the window, and survival depends on a
        # gap only through gap / median: scaling both by a power of two is
        # exact in binary64, so no draw or count may move. An absolute time
        # constant in the model would break this. The stream seed derives
        # from the window, so both configs run one (seed, stream_seed) cell.
        base = _config(n_a, n_b, n_devices, duration, p_on, median, sigma)
        for k in (-2, 1, 10):
            scaled = _config(n_a, n_b, n_devices, duration * 2.0**k, p_on, median * 2.0**k, sigma)
            for seed in range(5):
                cell = (derive_seed(10, seed), derive_seed(10, "streams", seed))
                ((_, expected),) = _trial_batches([(base, *cell)], 256)
                ((_, got),) = _trial_batches([(scaled, *cell)], 256)
                for name, a, b in zip(expected._fields, expected, got):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (k, seed, name)

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("median", [0.05, 1.0, 3.0])
    @pytest.mark.parametrize("p_on", [0.02, 0.1, 0.5])
    def test_trace_time_scale_invariance(self, p_on, median, sigma):
        # The trace variant: dividing the pulse and sample rates by 2**k and
        # multiplying the tail and the median by 2**k scales every pulse,
        # sample and expiry time exactly, so no count may move.
        def trace(scale, seed):
            params = DeviceParams(270.0, RetentionDistribution(median * scale, sigma))
            return run_trace_experiment(50, generate_periodic(50, 10.0 / scale), p_on, params,
                                        sample_rate_hz=20.0 / scale, repeats=200,
                                        master_seed=seed, tail_s=2.0 * scale)
        for seed in range(3):
            base = trace(1.0, seed)
            for k in (-2, 1, 10):
                got = trace(2.0**k, seed)
                assert got.count_on.tobytes() == base.count_on.tobytes(), (k, seed)
                assert got.current_uA.tobytes() == base.current_uA.tobytes(), (k, seed)
                assert got.times.tobytes() == (base.times * 2.0**k).tobytes(), (k, seed)

    def test_symmetry_under_stream_swap(self):
        # accuracy(40 vs 20) and accuracy(20 vs 40) agree within Monte Carlo
        # noise; 3-sigma band on the difference of two 400-trial estimates.
        n = 400
        acc = []
        for n_a, n_b in ((40, 20), (20, 40)):
            acc.append(np.count_nonzero(run_trials(_config(n_a=n_a, n_b=n_b), n, 9).correct) / n)
        se_diff = math.sqrt(2.0 * 0.25 / n)
        assert abs(acc[0] - acc[1]) < 3.0 * se_diff


def _streams(k, m=3, duration=2.0, seed=0):
    """A fixed ``(m, k)`` matrix of sorted pulse times on ``[0, duration)``."""
    return random_times(k, duration, m, np.random.default_rng(seed))


# (case, retention, p_on, (m, K) stream matrix, window). The sigma = 0 rows put
# gaps of exactly one median between pulses and before the read, where a cell
# lit by the earlier pulse is OFF (strict expiry > t).
LAW_CASES = [
    ("fast decay", RetentionDistribution(0.05, 0.5), 0.2, _streams(40, seed=1), 2.0),
    ("reference 40", RetentionDistribution(2.0, 0.5), 0.05, _streams(40, seed=2), 2.0),
    ("reference 20", RetentionDistribution(2.0, 0.5), 0.05, _streams(20, seed=3), 2.0),
    ("no spread", RetentionDistribution(0.25, 0.0), 0.5,
     np.array([[0.0, 0.25, 0.5, 0.75], [0.0, 0.1, 0.35, 0.8], [0.1, 0.2, 0.45, 0.6]]), 1.0),
    ("no spread random", RetentionDistribution(0.25, 0.0), 0.3, _streams(12, seed=4), 2.0),
    ("p_on 0", RetentionDistribution(2.0, 0.5), 0.0, _streams(10, seed=5), 2.0),
    ("p_on 1", RetentionDistribution(2.0, 0.5), 1.0, _streams(10, seed=6), 2.0),
    ("p_on 1 fast", RetentionDistribution(0.05, 0.5), 1.0, _streams(10, duration=0.5, seed=7), 0.5),
    ("K = 0", RetentionDistribution(2.0, 0.5), 0.05, _streams(0), 2.0),
    ("K = 1", RetentionDistribution(0.5, 0.5), 0.6, _streams(1, m=4, duration=1.0, seed=8), 1.0),
]


class TestCollapsedSamplerLaw:
    """The end-of-window count sampler against the per-cell reference kernel, in law.

    A trial draws each count as ``binomial(N, on_probability(...))``.
    Here every row of a fixed stream matrix drives ``REPLICAS`` synapses of
    ``N`` cells through ``reference_kernel.on_counts``, and the ON counts at
    the window end are compared with the sampler on the same streams.
    """

    N = 10
    REPLICAS = 4000

    def _kernel_counts(self, retention, p_on, times, duration, rng):
        """ON counts at ``duration``, shape ``(rows, REPLICAS)``: each stream row in turn."""
        return np.array([on_counts((self.REPLICAS, self.N), row, p_on, retention.median_s,
                                   retention.sigma_log, [duration], rng)[:, 0] for row in times])

    @pytest.mark.parametrize("case,retention,p_on,times,duration", LAW_CASES,
                             ids=[c[0] for c in LAW_CASES])
    def test_on_probability_matches_kernel(self, case, retention, p_on, times, duration):
        pi = on_probability(times, duration, p_on, retention)
        counts = self._kernel_counts(retention, p_on, times, duration, spawn_rng(11, "law", case))
        # The R*N cells of one row are independent Bernoulli(pi) under the kernel.
        freq = counts.sum(axis=1) / (self.REPLICAS * self.N)
        se = np.sqrt(pi * (1.0 - pi) / (self.REPLICAS * self.N))
        assert np.all(np.abs(freq - pi) <= 3.0 * se), (freq, pi)

    @pytest.mark.parametrize("case,retention,p_on,times,duration", LAW_CASES,
                             ids=[c[0] for c in LAW_CASES])
    def test_count_histogram_matches_kernel(self, case, retention, p_on, times, duration):
        pi = on_probability(times, duration, p_on, retention)
        kernel = self._kernel_counts(retention, p_on, times, duration, spawn_rng(12, "law", case))
        rng = spawn_rng(13, "law", case)
        sampled = rng.binomial(self.N, np.repeat(pi, self.REPLICAS)).reshape(kernel.shape)
        for a, b in zip(kernel, sampled):
            ha = np.bincount(a, minlength=self.N + 1)
            hb = np.bincount(b, minlength=self.N + 1)
            used = (ha + hb) > 0
            df = np.count_nonzero(used) - 1
            if not df:  # all mass in one bin (pi = 0 or 1): the bins must agree
                assert np.array_equal(ha, hb)
                continue
            # Two-sample chi-square on equal sample sizes, within 3 SE of its mean.
            chi2 = np.sum((ha[used] - hb[used]) ** 2 / (ha[used] + hb[used]))
            assert (chi2 - df) / math.sqrt(2.0 * df) <= 3.0, (ha, hb)

    @pytest.mark.parametrize("k", [0, 1, 40])
    @pytest.mark.parametrize("p_on", [0.0, 0.05, 1.0])
    def test_recurrence_is_the_documented_formula(self, p_on, k):
        # Bit for bit: a plain loop of the docstring's formula, one trial at a time.
        retention = RetentionDistribution(0.8, 0.5)
        times = _streams(k, m=64, seed=100 + k)
        expected = []
        for row in times:
            if not k:
                expected.append(0.0)
                continue
            s = retention.survival(np.diff(row, append=2.0)).tolist()
            q = p_on
            for j in range(1, k):
                q = p_on + (1.0 - p_on) * q * s[j - 1]
            expected.append(q * s[-1])
        assert np.array_equal(on_probability(times, 2.0, p_on, retention), expected)

    def test_degenerate_probabilities(self):
        times = _streams(10)
        assert np.all(on_probability(times, 2.0, 0.0, RetentionDistribution(2.0, 0.5)) == 0.0)
        assert np.all(on_probability(_streams(0, m=5), 2.0, 0.7, RetentionDistribution(2.0)) == 0.0)
        # Every pulse lights every cell: only the last filament matters.
        retention = RetentionDistribution(0.5, 0.5)
        np.testing.assert_array_equal(
            on_probability(times, 2.0, 1.0, retention), retention.survival(2.0 - times[:, -1])
        )

    @pytest.mark.parametrize("median,sigma,p_on", [(0.05, 0.5, 0.05), (2.0, 0.5, 0.05),
                                                   (0.3, 0.0, 0.2), (2.0, 1.0, 0.4)])
    def test_matches_exact_oracle_recurrence(self, median, sigma, p_on):
        # The test-side oracle's pi, written independently, on shared streams.
        for k in (0, 1, 2, 40):
            times = _streams(k, m=200, seed=k)
            np.testing.assert_allclose(
                on_probability(times, 2.0, p_on, RetentionDistribution(median, sigma)),
                exact_on_probability(times, 2.0, p_on, median, sigma),
                rtol=1e-12, atol=1e-15,
            )


def _gap_survival_alone(times, duration, retention):
    """One stream's ``(K, m)`` gap survival, written into its own matrix: the single-stream form."""
    m, k = times.shape
    survive = np.empty((k, m))
    if k:
        np.subtract(times.T[1:], times.T[:-1], out=survive[:-1])
        np.subtract(duration, times[:, -1], out=survive[-1])
        retention.survival(survive, out=survive)
    return survive


class TestBlockKernels:
    """The kernels over a whole chunk at once, bit for bit against one stream or one ``p_on`` at a time."""

    @pytest.mark.parametrize("m", [1, 7, 1024])
    @pytest.mark.parametrize("retention", [RetentionDistribution(0.8, 0.5), RetentionDistribution(0.25, 0.0)],
                             ids=["lognormal", "step"])
    def test_merged_survival_rows_are_each_stream_alone(self, retention, m):
        streams = [_streams(k, m=m, seed=200 + k) for k in (40, 0, 1, 20)]
        merged = retention.survival(stream_gaps(streams, 2.0))
        assert merged.shape == (61, m)
        row = 0
        for times in streams:
            k = times.shape[1]
            assert np.array_equal(merged[row:row + k], _gap_survival_alone(times, 2.0, retention))
            row += k

    @pytest.mark.parametrize("p_on", [[0.0], [1.0], [0.0, 0.01, 0.05, 0.2, 0.7, 1.0]],
                             ids=["P=1,p_on=0", "P=1,p_on=1", "P=6"])
    @pytest.mark.parametrize("k", [0, 1, 40])
    def test_vector_p_on_is_one_scalar_call_each(self, k, p_on):
        survive = RetentionDistribution(0.8, 0.5).survival(stream_gaps([_streams(k, m=300, seed=300 + k)], 2.0))
        block = _recurrence(survive, p_on)
        assert block.shape == (len(p_on), 300)
        for row, p in zip(block, p_on):
            scalar = _recurrence(survive, p)
            assert scalar.shape == (300,)
            assert np.array_equal(row, scalar)
