"""Decision network: comparator, trial mechanics, symmetry, invariances."""

import math

import numpy as np
import pytest

from memdecide import (
    DeviceParams,
    RetentionDistribution,
    StreamSpec,
    TwoAfcConfig,
    decide,
    run_trials,
    spawn_rng,
)


def _config(n_a=40, n_b=20, n_devices=20, duration=2.0, p_on=0.05,
            median=2.0, sigma=0.5, i_on=None, i_off=0.0):
    params = DeviceParams(
        i_cc_uA=270.0,
        retention=RetentionDistribution(median, sigma),
        i_on_uA=i_on,
        i_off_uA=i_off,
    )
    return TwoAfcConfig(
        n_devices=n_devices,
        params=params,
        p_on=p_on,
        spec_a=StreamSpec(n_a, duration),
        spec_b=StreamSpec(n_b, duration),
    )


class TestDecide:
    def test_sign_comparison(self, rng):
        choose_a, tie = decide([900.0, 0.0], [300.0, 10.0], rng)
        assert choose_a.tolist() == [True, False]
        assert tie.tolist() == [False, False]

    def test_tie_is_uniform(self, rng):
        n = 10_000
        choose_a, tie = decide(np.full(n, 5.0), np.full(n, 5.0), rng)
        assert tie.all()
        a_rate = np.count_nonzero(choose_a) / n
        assert abs(a_rate - 0.5) < 3.0 * math.sqrt(0.25 / n)


class TestConfigValidation:
    def test_window_mismatch(self):
        params = DeviceParams(270.0, RetentionDistribution(1.0))
        with pytest.raises(ValueError):
            TwoAfcConfig(10, params, 0.6, StreamSpec(4, 1.0), StreamSpec(2, 2.0))

    def test_needs_devices(self):
        params = DeviceParams(270.0, RetentionDistribution(1.0))
        with pytest.raises(ValueError):
            TwoAfcConfig(0, params, 0.6, StreamSpec(4, 1.0), StreamSpec(2, 1.0))

    @pytest.mark.parametrize("p_on", [-0.1, 1.1, math.nan])
    def test_rejects_p_on_out_of_range(self, p_on):
        with pytest.raises(ValueError, match="p_on"):
            _config(p_on=p_on)


class TestRunTrial:
    # One trial is a batch of one: ``run_trials(cfg, 1, rng)``.
    def test_one_sided_certain_evidence(self, rng):
        cfg = _config(n_a=40, n_b=0, p_on=1.0, median=1e9, sigma=0.0)
        r = run_trials(cfg, 1, rng)
        assert r.choose_a[0] and r.correct[0] and not r.tie[0]
        assert r.count1[0] == 20 and r.count2[0] == 0
        assert r.i1_uA[0] == 20 * 270.0 and r.i2_uA[0] == 0.0

    def test_no_evidence_is_a_coin_flip(self):
        cfg = _config(p_on=0.0)
        n = 400
        results = [run_trials(cfg, 1, spawn_rng(5, i)) for i in range(n)]
        assert all(r.tie[0] and r.i1_uA[0] == 0.0 and r.i2_uA[0] == 0.0 for r in results)
        accuracy = sum(bool(r.correct[0]) for r in results) / n
        assert abs(accuracy - 0.5) < 3.0 * math.sqrt(0.25 / n)

    def test_counts_bounded_by_devices(self):
        cfg = _config()
        for i in range(20):
            r = run_trials(cfg, 1, spawn_rng(6, i))
            assert 0 <= r.count1[0] <= 20 and 0 <= r.count2[0] <= 20

    def test_equal_streams_count_as_correct(self):
        cfg = _config(n_a=10, n_b=10)
        assert all(run_trials(cfg, 1, spawn_rng(7, i)).correct[0] for i in range(20))

    def test_determinism(self):
        cfg = _config()
        first = run_trials(cfg, 1, np.random.default_rng(99))
        second = run_trials(cfg, 1, np.random.default_rng(99))
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_decision_scale_invariance(self):
        # With zero leakage the comparator sees only the ON-count difference,
        # so scaling the ON current must not flip any seeded decision.
        base = _config(i_on=270.0)
        scaled = _config(i_on=2700.0)
        for i in range(50):
            r1 = run_trials(base, 1, spawn_rng(8, i))
            r2 = run_trials(scaled, 1, spawn_rng(8, i))
            assert r1.choose_a[0] == r2.choose_a[0]
            assert r2.i1_uA[0] == pytest.approx(10.0 * r1.i1_uA[0])

    def test_symmetry_under_stream_swap(self):
        # accuracy(40 vs 20) and accuracy(20 vs 40) agree within Monte Carlo
        # noise; 3-sigma band on the difference of two 400-trial estimates.
        n = 400
        acc = []
        for n_a, n_b in ((40, 20), (20, 40)):
            cfg = _config(n_a=n_a, n_b=n_b)
            acc.append(sum(bool(run_trials(cfg, 1, spawn_rng(9, i)).correct[0])
                           for i in range(n)) / n)
        se_diff = math.sqrt(2.0 * 0.25 / n)
        assert abs(acc[0] - acc[1]) < 3.0 * se_diff
