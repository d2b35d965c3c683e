"""Harness: Wilson intervals, seed derivation, sweeps, oracles, traces."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from memdecide import (
    DeviceParams,
    ParamDeck,
    RetentionDistribution,
    SwitchingCurve,
    TwoAfcConfig,
    default_deck,
    derive_seed,
    estimate_accuracy,
    generate_periodic,
    run_trace_experiment,
    run_trials,
    spawn_rng,
    sweep,
    sweep_cells,
    wilson_interval,
)
from memdecide import experiment
from memdecide.experiment import TRIAL_CHUNK, sample_count
from memdecide.network import gap_survival, on_probability
from memdecide.stream import random_times
from memdecide.synapse import trace_counts

from exact_accuracy import exact_accuracy, exact_trace_mean, expected_on_count_no_decay

CURVE = SwitchingCurve(v_median=0.6, v_spread=0.05)

# Standard-normal 10% quantile puts the 10%-switching amplitude at
# 0.6 - 1.2815515655446004 * 0.05.
V_AT_TEN_PERCENT = 0.5359224217227699


def _exact_bound(point, exact, se_exact):
    """3 * sqrt(SE_mc^2 + SE_oracle^2), the bound fixed for every oracle check."""
    se_mc = math.sqrt(exact * (1.0 - exact) / point.n_trials)
    return 3.0 * math.sqrt(se_mc ** 2 + se_exact ** 2)


def _fixed_retention_sweep(trials, median, **axes):
    # A one-row retention table gives that row at every compliance current.
    deck = ParamDeck(default_deck().switching, [(1.0, RetentionDistribution(median, 0.5))])
    return sweep(sweep_cells(**axes, deck=deck), trials)


def _cell_trials(cfg, stream_seed, seed, m):
    """The first ``m`` trials of a cell, by hand: ``(correct, tie, count2)`` arrays.

    A's pulse times come from ``spawn_rng(stream_seed, "A")`` and B's from
    ``spawn_rng(stream_seed, "B")``; each trial's A count, B count and tie
    coin, in turn, from one ``binomial`` draw of ``spawn_rng(seed,
    "readout")``.
    """
    pi = [on_probability(gap_survival(random_times(n, cfg.duration_s, m, spawn_rng(stream_seed, label)),
                                      cfg.duration_s, cfg.params.retention), cfg.p_on)
          for n, label in ((cfg.n_a, "A"), (cfg.n_b, "B"))]
    n = cfg.n_devices
    draws = spawn_rng(seed, "readout").binomial((n, n, 1), np.stack((*pi, np.full(m, 0.5)), axis=1))
    count1, count2, coin = draws.T
    tie = count1 == count2
    choose_a = np.where(tie, coin == 1, count1 > count2)
    return choose_a == (cfg.n_a > cfg.n_b), tie, count2


def _config(n_a=40, n_b=20, n_devices=20, duration=2.0, p_on=0.05, median=2.0):
    return TwoAfcConfig(
        n_devices=n_devices,
        params=DeviceParams(270.0, RetentionDistribution(median, 0.5)),
        p_on=p_on,
        n_a=n_a,
        n_b=n_b,
        duration_s=duration,
    )


class TestWilsonInterval:
    @given(trials=st.integers(1, 5000), frac=st.floats(0.0, 1.0))
    def test_bounds_bracket_the_estimate(self, trials, frac):
        successes = round(frac * trials)
        lo, hi = wilson_interval(successes, trials)
        assert 0.0 <= lo <= successes / trials <= hi <= 1.0

    def test_coverage_against_bernoulli_simulator(self, rng):
        # 2000 simulated binomial batches at p=0.3, n=150: the 95% interval
        # should cover the truth about 95% of the time (band is ~4 sigma).
        p_true, n, reps = 0.3, 150, 2000
        covered = 0
        for _ in range(reps):
            k = rng.binomial(n, p_true)
            lo, hi = wilson_interval(int(k), n)
            covered += lo <= p_true <= hi
        assert 0.93 <= covered / reps <= 0.97

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)


class TestSeedDerivation:
    def test_stable_and_order_free(self):
        a = derive_seed(42, 2.0, 40, 20, "x")
        assert a == derive_seed(42, 2.0, 40, 20, "x")
        assert a != derive_seed(42, 2.0, 20, 40, "x")
        assert a != derive_seed(43, 2.0, 40, 20, "x")

    def test_int_float_distinct(self):
        assert derive_seed(0, 1) != derive_seed(0, 1.0)


class TestInvertPOn:
    """``SwitchingCurve.quantile``: the pulse amplitude realizing a target p_on."""

    def test_median(self):
        assert CURVE.quantile(0.5) == pytest.approx(0.6, abs=1e-12)

    def test_round_trip(self):
        v = CURVE.quantile(0.02)
        assert float(CURVE.probability(v)) == pytest.approx(0.02, abs=1e-9)

    def test_ten_percent_golden(self):
        assert CURVE.quantile(0.1) == pytest.approx(V_AT_TEN_PERCENT, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.7])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            CURVE.quantile(bad)


class TestExpectedOnCount:
    def test_golden_and_recursion_oracle(self):
        # Closed form vs. per-pulse probability recursion
        # q_j = q_{j-1} + (1 - q_{j-1}) p.
        assert expected_on_count_no_decay(50, 0.02, 50) == pytest.approx(
            31.79151599564416, abs=1e-12
        )
        for n, p, k in [(50, 0.02, 50), (50, 0.10, 50), (10, 0.5, 3),
                        (100, 0.01, 100), (20, 0.3, 10)]:
            q = 0.0
            for _ in range(k):
                q = q + (1.0 - q) * p
            assert expected_on_count_no_decay(n, p, k) == pytest.approx(n * q, rel=1e-12)

    def test_edges(self):
        assert expected_on_count_no_decay(17, 0.3, 0) == 0.0
        assert expected_on_count_no_decay(17, 1.0, 1) == 17.0

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            expected_on_count_no_decay(10, 1.5, 3)


class TestEstimateAccuracy:
    def test_chance_baseline_with_no_evidence(self):
        # Every trial is a tie, so the number correct is Binomial(500, 0.5).
        trials = 500
        point = estimate_accuracy(_config(p_on=0.0), trials=trials, master_seed=3)
        assert point.n_ties == trials
        assert abs(point.accuracy - 0.5) < 3.0 * math.sqrt(0.25 / trials)

    def test_point_metadata(self):
        point = estimate_accuracy(_config(), trials=50, master_seed=3)
        assert (point.n_a, point.n_b) == (40, 20)
        assert point.n_devices == 20
        assert point.duration_s == 2.0
        assert point.i_cc_uA == 270.0
        assert point.p_on == pytest.approx(0.05, abs=1e-9)
        assert point.ci_low <= point.accuracy <= point.ci_high
        assert point.n_trials == 50

    @pytest.mark.parametrize("trials", [1, TRIAL_CHUNK, 2 * TRIAL_CHUNK + 3])
    def test_run_trials_are_the_trials_it_counts(self, trials):
        # run_trials returns estimate_accuracy's cell trial by trial, across
        # chunk boundaries and into a partial last chunk, as one unchunked
        # draw of each generator rebuilds it.
        cfg = _config(p_on=0.2)
        batch = run_trials(cfg, trials, 3)
        point = estimate_accuracy(cfg, trials, 3)
        assert all(field.shape == (trials,) for field in batch)
        assert round(point.accuracy * trials) == np.count_nonzero(batch.correct)
        assert point.n_ties == np.count_nonzero(batch.tie)
        correct, tie, count2 = _cell_trials(cfg, derive_seed(3, "streams", 2.0, 40, 20), 3, trials)
        assert np.array_equal(batch.correct, correct)
        assert np.array_equal(batch.tie, tie)
        assert np.array_equal(batch.count2, count2)

    @pytest.mark.parametrize("trials", [1, 2, TRIAL_CHUNK - 1, TRIAL_CHUNK, TRIAL_CHUNK + 1, 2 * TRIAL_CHUNK + 3])
    def test_a_run_is_a_prefix_of_a_longer_one(self, trials):
        cfg = _config(p_on=0.2)
        longer = run_trials(cfg, 700, 11)
        for name, field, whole in zip(longer._fields, run_trials(cfg, trials, 11), longer):
            assert np.array_equal(field, whole[:trials]), name

    def test_needs_a_trial(self):
        for run in (estimate_accuracy, run_trials):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                run(_config(), 0, 3)

    @pytest.mark.parametrize(
        "median,label",
        [(0.05, "fast-decay"), (2.0, "reference")],
    )
    def test_matches_exact_conditional_binomial(self, median, label):
        # 20 cells, 40 vs 20 pulses in 2 s, p_on 5%, sigma_log 0.5.
        point = estimate_accuracy(
            _config(median=median), trials=4000, master_seed=derive_seed(41, label)
        )
        exact, se_exact = exact_accuracy(
            20, 40, 20, 2.0, point.p_on, median, 0.5, pairs=4000, seed=43
        )
        assert abs(point.accuracy - exact) < _exact_bound(point, exact, se_exact)


class TestSweep:
    def test_single_cell_equals_estimate(self):
        # A cell's streams come from derive_seed(master_seed, "streams",
        # duration_s, n_a, n_b), its counts and tie coins from its cell
        # seed; estimate_accuracy is the one-cell sweep whose stream seed
        # derives from its own seed the same way.
        cells = sweep_cells(
            durations_s=[2.0], ratios=[(40, 20)], device_counts=[10],
            i_cc_values_uA=[270.0], p_on_values=[0.05], master_seed=17,
        )
        cell_seed = derive_seed(17, 2.0, 40, 20, 10, 270.0, 0.05)
        streams = derive_seed(17, "streams", 2.0, 40, 20)
        deck = default_deck()
        cfg = TwoAfcConfig(
            n_devices=10,
            params=DeviceParams(270.0, deck.retention_at(270.0)),
            # A sweep cell's p_on is its grid value through the deck's curve and back.
            p_on=float(deck.switching.probability(deck.switching.quantile(0.05))),
            n_a=40,
            n_b=20,
            duration_s=2.0,
        )
        assert cells == [(cfg, cell_seed, streams)]
        point = sweep(cells, 40)[0]
        correct, tie, _ = _cell_trials(cfg, streams, cell_seed, 40)
        assert point.accuracy == np.count_nonzero(correct) / 40
        assert point.n_ties == np.count_nonzero(tie)
        own_streams = derive_seed(cell_seed, "streams", 2.0, 40, 20)
        assert estimate_accuracy(cfg, 40, cell_seed) == sweep([(cfg, cell_seed, own_streams)], 40)[0]

    def test_cell_does_not_depend_on_the_grid(self):
        # The same cell alone, and among other N, I_cc and p_on values that
        # share its streams (and other windows and ratios that do not).
        cell = dict(durations_s=[2.0], ratios=[(40, 20)], device_counts=[10],
                    i_cc_values_uA=[270.0], p_on_values=[0.05], master_seed=19)
        grid = dict(cell, durations_s=[0.5, 2.0], ratios=[(40, 20), (20, 10)],
                    device_counts=[5, 10, 20], i_cc_values_uA=[100.0, 270.0],
                    p_on_values=[0.02, 0.05, 0.1])
        (alone,) = sweep(sweep_cells(**cell), 300)
        points = sweep(sweep_cells(**grid), 300)
        assert len(points) == 72
        assert [p for p in points if p[:6] == alone[:6]] == [alone]

    def test_streams_and_survival_are_shared(self, monkeypatch):
        # 7 synapse sizes and 3 switching probabilities at one window, ratio
        # and compliance current make as many survival calls as one cell:
        # one per chunk and stream.
        calls = []
        survival = RetentionDistribution.survival

        def counted(self, d, out=None):
            calls.append(np.shape(d))
            return survival(self, d, out)

        monkeypatch.setattr(RetentionDistribution, "survival", counted)
        axes = dict(durations_s=[2.0], ratios=[(40, 20)], device_counts=[5],
                    i_cc_values_uA=[270.0], p_on_values=[0.05], master_seed=23)
        sweep(sweep_cells(**axes), 300)
        one_cell = len(calls)
        calls.clear()
        points = sweep(sweep_cells(**dict(axes, device_counts=[3, 5, 10, 20, 30, 50, 100],
                                          p_on_values=[0.02, 0.05, 0.1])), 300)
        assert len(points) == 21
        assert len(calls) == one_cell == 4

    def test_chunk_size_changes_no_draw(self, monkeypatch):
        # TRIAL_CHUNK bounds the trials held at once and nothing else.
        axes = dict(durations_s=[0.5, 2.0], ratios=[(40, 20)], device_counts=[5, 20],
                    i_cc_values_uA=[270.0], p_on_values=[0.05, 0.2], master_seed=29)
        cfg = _config(p_on=0.2)
        expected = sweep(sweep_cells(**axes), 300), run_trials(cfg, 300, 3)
        for chunk in (7, 1000):
            monkeypatch.setattr(experiment, "TRIAL_CHUNK", chunk)
            points, batch = sweep(sweep_cells(**axes), 300), run_trials(cfg, 300, 3)
            assert points == expected[0], chunk
            assert all(np.array_equal(a, b) for a, b in zip(batch, expected[1])), chunk

    def test_generators_per_stream_set_and_cell(self, monkeypatch):
        # Two per stream set (A's and B's times) and one per cell (its
        # readout), whatever the number of trials.
        labels = []

        def counted(root, *parts):
            labels.append(parts)
            return spawn_rng(root, *parts)

        monkeypatch.setattr(experiment, "spawn_rng", counted)
        cells = sweep_cells(durations_s=[0.5, 2.0], ratios=[(40, 20)], device_counts=[5, 20, 50],
                            i_cc_values_uA=[270.0], p_on_values=[0.05, 0.2], master_seed=31)
        for trials in (1, 3 * TRIAL_CHUNK + 1):
            labels.clear()
            sweep(cells, trials)
            assert sorted(labels) == [("A",)] * 2 + [("B",)] * 2 + [("readout",)] * 12, trials

    def test_deterministic(self):
        axes = dict(
            durations_s=[0.5, 2.0], ratios=[(4, 2), (2, 1)], device_counts=[5],
            i_cc_values_uA=[270.0], p_on_values=[0.2], master_seed=21,
        )
        first = sweep(sweep_cells(**axes), 25)
        assert first == sweep(sweep_cells(**axes), 25)
        assert len(first) == 4

    def test_ratio_ordering_trend(self):
        # Larger streams at the same 2:1 ratio integrate more evidence; point
        # estimates must be ordered up to CI overlap.
        big, mid, small = _fixed_retention_sweep(
            300, 2.0, durations_s=[2.0], ratios=[(40, 20), (20, 10), (2, 1)],
            device_counts=[20], i_cc_values_uA=[270.0], p_on_values=[0.05], master_seed=23,
        )
        assert big.accuracy >= mid.accuracy - 0.05
        assert mid.accuracy > small.accuracy

    def test_saturation_hurts_accuracy(self):
        # Very high switching probability saturates both synapses: everything
        # is ON at the readout and the comparator mostly sees ties.
        moderate, saturated = _fixed_retention_sweep(
            300, 2.0, durations_s=[2.0], ratios=[(40, 20)], device_counts=[20],
            i_cc_values_uA=[270.0], p_on_values=[0.01, 0.20], master_seed=29,
        )
        assert moderate.accuracy > saturated.accuracy
        assert saturated.n_ties > moderate.n_ties

    def test_accuracy_non_increasing_in_duration_at_fixed_retention(self):
        # Stretching the same 40/20 streams at a fixed 1 s retention median
        # loses evidence only once the window is long against the retention.
        # At 1 s the 25 ms pulse gaps keep nearly every lit cell ON and both
        # synapses crowd toward saturation, so the exact accuracy rises from
        # 1 s to 5 s (about 0.958 -> 0.979) before it falls at 20 s (about
        # 0.79). Every point must match its exact conditional-binomial value,
        # and the 5 s -> 20 s loss must show beyond the CIs.
        points = _fixed_retention_sweep(
            400, 1.0, durations_s=[1.0, 5.0, 20.0], ratios=[(40, 20)], device_counts=[20],
            i_cc_values_uA=[270.0], p_on_values=[0.05], master_seed=31,
        )
        for point in points:
            exact, se_exact = exact_accuracy(
                20, 40, 20, point.duration_s, point.p_on, 1.0, 0.5, pairs=4000, seed=47
            )
            assert abs(point.accuracy - exact) < _exact_bound(point, exact, se_exact)
        assert points[1].ci_low > points[2].ci_high

    def test_rejects_empty_axis(self):
        axes = dict(durations_s=[0.5], ratios=[(2, 1)], device_counts=[5],
                    i_cc_values_uA=[270.0], p_on_values=[0.1])
        for name in axes:
            with pytest.raises(ValueError, match=f"^{name} must not be empty$"):
                sweep_cells(**{**axes, name: []}, master_seed=0)


class TestSampleCount:
    def test_grid_runs_through_window_and_tail(self):
        assert sample_count(5.0, 100.0, 2.0) == 701
        assert sample_count(1.0, 20.0) == 21
        assert sample_count(0.0, 3.0) == 1

    def test_grid_that_could_exist_is_not_rejected(self):
        # Too large to allocate here, but not a size no array can have.
        assert sample_count(7.0, 1e12) == 7 * 10**12 + 1

    @pytest.mark.parametrize(
        "duration_s,rate_hz,tail_s",
        [(1.0, 1e300, 0.0), (1.0, 20.0, 1e300), (1e301, 20.0, 0.0), (1.0, 20.0, 1e308)],
        ids=["rate", "tail", "window", "inf"],
    )
    def test_grid_too_large_to_exist_rejected(self, duration_s, rate_hz, tail_s):
        with pytest.raises(ValueError, match="too many"):
            sample_count(duration_s, rate_hz, tail_s)

    @pytest.mark.parametrize("rate_hz,tail_s", [(0.0, 0.0), (-1.0, 0.0), (math.nan, 0.0),
                                                (1.0, -1.0), (1.0, math.inf), (1.0, math.nan)])
    def test_rate_and_tail_checked(self, rate_hz, tail_s):
        with pytest.raises(ValueError):
            sample_count(1.0, rate_hz, tail_s)


class TestTraceExperiment:
    def test_single_repeat_matches_raw_trace(self):
        # A series is one chain over its repeats * n cells, from one generator.
        stream = generate_periodic(20, 10.0)
        params = DeviceParams(300.0, RetentionDistribution(1.0, 0.5))
        for repeats in (1, 3):
            averaged = run_trace_experiment(
                30, stream, 0.1, params, sample_rate_hz=10.0, repeats=repeats, master_seed=31
            )
            manual = trace_counts(repeats * 30, stream.times, 0.1, params.retention, averaged.times,
                                  spawn_rng(31, "chain"))
            assert np.array_equal(averaged.count_on, manual / repeats)
            assert np.array_equal(averaged.current_uA, params.current_uA(manual / repeats, 30))

    @pytest.mark.parametrize(
        "p_on,i_cc",
        [(0.05, 300.0), (0.1, 100.0)],
        ids=["fig2b-p_on=0.05", "fig2c-i_cc=100"],
    )
    def test_matches_exact_trace_mean(self, p_on, i_cc):
        # One series each of fig2b and fig2c: 50 cells, 50 pulses at 10 Hz,
        # 100 Hz sampling, 200 repeats, 2 s tail, default deck. Sample times
        # 0.5, 1.0 and 4.9 s coincide with pulses; 5.0-7.0 s is the tail. Each
        # repeat's count is Binomial(50, pi) at a fixed time, so the bound is
        # 4 * sqrt(50 * pi * (1 - pi) / 200).
        n, repeats = 50, 200
        params = DeviceParams(i_cc, default_deck().retention_at(i_cc))
        trace = run_trace_experiment(
            n, generate_periodic(50, 10.0), p_on, params, sample_rate_hz=100.0,
            repeats=repeats, master_seed=derive_seed(53, p_on, i_cc), tail_s=2.0,
        )
        picks = [0, 5, 50, 55, 100, 250, 333, 490, 495, 500, 520, 700]
        exact = exact_trace_mean(
            n, np.arange(50) / 10.0, trace.times[picks], p_on,
            params.retention.median_s, params.retention.sigma_log,
        )
        pi = exact / n
        bound = 4.0 * np.sqrt(n * pi * (1.0 - pi) / repeats)
        assert np.all(np.abs(trace.count_on[picks] - exact) <= bound)

    def test_tail_extends_sampling(self):
        stream = generate_periodic(5, 10.0)
        trace = run_trace_experiment(
            10, stream, 0.5, DeviceParams(300.0, RetentionDistribution(0.05, 0.5)),
            sample_rate_hz=10.0, repeats=3, master_seed=31, tail_s=1.0,
        )
        assert trace.times[-1] == pytest.approx(1.5, abs=1e-12)
        # Short retention: the tail relaxes back to zero.
        assert trace.count_on[-1] < trace.count_on.max()

    def test_reproducible(self):
        stream = generate_periodic(10, 10.0)
        params = DeviceParams(300.0, RetentionDistribution(0.5, 0.5))
        kwargs = dict(sample_rate_hz=20.0, repeats=5, master_seed=37)
        a = run_trace_experiment(15, stream, 0.05, params, **kwargs)
        b = run_trace_experiment(15, stream, 0.05, params, **kwargs)
        assert np.array_equal(a.count_on, b.count_on)

    @pytest.mark.parametrize("p_on", [-0.1, 1.1, math.nan])
    def test_rejects_p_on_out_of_range(self, p_on):
        params = DeviceParams(300.0, RetentionDistribution(0.5, 0.5))
        with pytest.raises(ValueError, match="p_on"):
            run_trace_experiment(5, generate_periodic(5, 10.0), p_on, params,
                                 sample_rate_hz=10.0, repeats=2, master_seed=37)

    @pytest.mark.parametrize("p_on", [0.0, 1.0])
    def test_accepts_p_on_bounds(self, p_on):
        params = DeviceParams(300.0, RetentionDistribution(1e9, 0.0))
        trace = run_trace_experiment(5, generate_periodic(5, 10.0), p_on, params,
                                     sample_rate_hz=10.0, repeats=2, master_seed=37)
        assert trace.count_on[-1] == 5 * p_on
