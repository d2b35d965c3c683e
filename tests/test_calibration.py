"""Parameter fitting: probit round-trips, retention fits, deck files."""

import math

import numpy as np
import pytest

from memdecide import (
    DegenerateDataError,
    DeviceParams,
    InsufficientDataError,
    ParamDeck,
    RetentionDistribution,
    RetentionRecord,
    SwitchingCurve,
    SwitchingRecord,
    default_deck,
    device_params,
    fit_retention,
    fit_switching_curve,
    interpolate_retention,
    read_deck,
    read_retention_csv,
    read_switching_csv,
    write_deck,
)
from memdecide.calibration import _probit_nll_grad


def _synthetic_switching(curve, n, rng, lo=0.4, hi=0.8):
    v = rng.uniform(lo, hi, n)
    switched = rng.random(n) < curve.probability(v)
    return [SwitchingRecord(float(a), bool(b)) for a, b in zip(v, switched)]


class TestSwitchingFit:
    def test_round_trip_recovers_generator(self, rng):
        true = SwitchingCurve(0.6, 0.05)
        records = _synthetic_switching(true, 10_000, rng)
        fitted, diag = fit_switching_curve(records)
        assert fitted.v_median == pytest.approx(0.6, abs=0.01)
        assert fitted.v_spread == pytest.approx(0.05, abs=0.01)
        assert diag.converged
        assert diag.n_records == 10_000
        assert 0.0 < diag.se_v_median < 0.01
        assert 0.0 < diag.se_v_spread < 0.01

    def test_likelihood_beats_brute_force_grid(self, rng):
        # Local-optimum oracle: the fit's log-likelihood must be at least as
        # good as every point of a 50x50 grid over a box around it.
        records = _synthetic_switching(SwitchingCurve(0.6, 0.05), 2_000, rng)
        fitted, diag = fit_switching_curve(records)
        v = np.array([r.v_pulse_V for r in records])
        y = np.array([r.switched for r in records])
        best = -math.inf
        for mu in np.linspace(fitted.v_median - 0.02, fitted.v_median + 0.02, 50):
            for spread in np.linspace(fitted.v_spread * 0.5, fitted.v_spread * 2.0, 50):
                nll, _ = _probit_nll_grad(np.array([mu, math.log(spread)]), v, y)
                best = max(best, -nll)
        assert diag.log_likelihood >= best - 1e-9

    def test_interleaved_bands_place_median_between(self, rng):
        # Noisy low/high amplitude bands: mostly misses at 0.58 V, mostly hits
        # at 0.62 V, with some of each flipped so the fit stays identifiable.
        low = [SwitchingRecord(0.58, rng.random() < 0.2) for _ in range(200)]
        high = [SwitchingRecord(0.62, rng.random() < 0.8) for _ in range(200)]
        fitted, _ = fit_switching_curve(low + high)
        assert 0.58 < fitted.v_median < 0.62
        # Brute-force oracle over the identifiable region agrees.
        v = np.array([r.v_pulse_V for r in low + high])
        y = np.array([r.switched for r in low + high])
        grid_best, grid_arg = -math.inf, None
        for mu in np.linspace(0.55, 0.65, 101):
            for spread in np.geomspace(0.005, 0.1, 60):
                nll, _ = _probit_nll_grad(np.array([mu, math.log(spread)]), v, y)
                if -nll > grid_best:
                    grid_best, grid_arg = -nll, mu
        assert fitted.v_median == pytest.approx(grid_arg, abs=0.002)

    def test_one_sided_outcomes_rejected(self):
        records = [SwitchingRecord(0.5 + 0.01 * i, True) for i in range(20)]
        with pytest.raises(DegenerateDataError):
            fit_switching_curve(records)

    def test_constant_amplitude_rejected(self):
        records = [SwitchingRecord(0.6, i % 2 == 0) for i in range(20)]
        with pytest.raises(DegenerateDataError):
            fit_switching_curve(records)

    def test_too_few_records_rejected(self):
        records = [SwitchingRecord(0.5 + 0.01 * i, i % 2 == 0) for i in range(9)]
        with pytest.raises(InsufficientDataError):
            fit_switching_curve(records)


class TestRetentionFit:
    def test_constant_samples(self):
        records = [RetentionRecord(100.0, 1.0) for _ in range(10)]
        table = fit_retention(records)
        assert table == [(100.0, RetentionDistribution(1.0, 0.0))]

    def test_round_trip_recovers_generator(self, rng):
        true = RetentionDistribution(0.1, 0.5)
        samples = true.sample(rng, 10_000)
        table = fit_retention([RetentionRecord(50.0, float(s)) for s in samples])
        (_, fitted), = table
        assert fitted.median_s == pytest.approx(0.1, rel=0.02)
        assert fitted.sigma_log == pytest.approx(0.5, rel=0.05)

    def test_two_groups_sorted_and_monotone(self, rng):
        records = []
        for i_cc, median in ((300.0, 1.0), (10.0, 0.01)):
            for s in RetentionDistribution(median, 0.3).sample(rng, 50):
                records.append(RetentionRecord(i_cc, float(s)))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no monotonicity warning expected
            table = fit_retention(records)
        assert [i for i, _ in table] == [10.0, 300.0]
        assert table[0][1].median_s < table[1][1].median_s

    def test_non_monotone_medians_warn_not_fail(self):
        records = [RetentionRecord(10.0, 1.0)] * 5 + [RetentionRecord(300.0, 0.01)] * 5
        with pytest.warns(UserWarning):
            table = fit_retention(records)
        assert len(table) == 2

    def test_small_group_rejected(self):
        records = [RetentionRecord(10.0, 0.01)] * 5 + [RetentionRecord(300.0, 1.0)] * 4
        with pytest.raises(InsufficientDataError):
            fit_retention(records)


class TestInterpolation:
    TABLE = [
        (10.0, RetentionDistribution(0.01, 0.4)),
        (1000.0, RetentionDistribution(1.0, 0.6)),
    ]

    def test_exact_entry_verbatim(self):
        assert interpolate_retention(self.TABLE, 10.0) is self.TABLE[0][1]

    def test_log_midpoint(self):
        # Hand computation: 10^((log10 0.01 + log10 1.0) / 2) = 0.1.
        dist = interpolate_retention(self.TABLE, 100.0)
        assert dist.median_s == pytest.approx(0.1, rel=1e-12)
        assert dist.sigma_log == pytest.approx(0.5, abs=1e-12)

    def test_clamped_extrapolation(self):
        assert interpolate_retention(self.TABLE, 1.0) is self.TABLE[0][1]
        assert interpolate_retention(self.TABLE, 5000.0) is self.TABLE[1][1]

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            interpolate_retention([], 100.0)


class TestDeck:
    def test_default_deck_spans_milliseconds_to_seconds(self):
        deck = default_deck()
        medians = [d.median_s for _, d in deck.retention_table]
        assert medians[0] == 0.01 and medians[-1] == 1.0

    def test_serialization_round_trips_exactly(self, tmp_path):
        deck = ParamDeck(
            switching=SwitchingCurve(0.5997590452829158, 0.0507741277865155),
            retention_table=[
                (10.0, RetentionDistribution(0.010081667809977664, 0.48432060907355323)),
                (300.0, RetentionDistribution(1.0623899437408557, 0.5009860928639126)),
            ],
            provenance="synthetic fit",
        )
        path = tmp_path / "deck.json"
        write_deck(deck, path)
        assert read_deck(path) == deck
        # Writing the reread deck reproduces the file byte for byte.
        path2 = tmp_path / "deck2.json"
        write_deck(read_deck(path), path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_device_params_at_current(self):
        deck = default_deck()
        params = device_params(deck, 270.0)
        assert params.i_on_uA == 270.0
        assert params == DeviceParams(270.0, interpolate_retention(deck.retention_table, 270.0))


class TestCsvIngestion:
    def test_switching_round_trip(self, tmp_path):
        path = tmp_path / "sw.csv"
        path.write_text("v_pulse_V,switched\n0.55,0\n0.65,1\n")
        records = read_switching_csv(path)
        assert records == [SwitchingRecord(0.55, False), SwitchingRecord(0.65, True)]

    def test_switching_header_is_exact(self, tmp_path):
        path = tmp_path / "sw.csv"
        path.write_text("voltage,switched\n0.55,0\n")
        with pytest.raises(ValueError):
            read_switching_csv(path)

    def test_switching_rejects_non_binary(self, tmp_path):
        path = tmp_path / "sw.csv"
        path.write_text("v_pulse_V,switched\n0.55,yes\n")
        with pytest.raises(ValueError):
            read_switching_csv(path)

    @pytest.mark.parametrize("row", ["nan,1", "inf,0", "1e400,1", "abc,0"])
    def test_switching_rejects_non_finite_amplitude(self, tmp_path, row):
        # Line numbers count the comment and blank lines the reader skips.
        path = tmp_path / "sw.csv"
        path.write_text(f"# measured\nv_pulse_V,switched\n0.55,0\n\n{row}\n")
        with pytest.raises(ValueError, match=r"sw\.csv:5: not a finite number"):
            read_switching_csv(path)

    @pytest.mark.parametrize("row", ["100,inf", "nan,0.5", "100,-inf", "100,"])
    def test_retention_rejects_non_finite_value(self, tmp_path, row):
        path = tmp_path / "ret.csv"
        path.write_text(f"i_cc_uA,retention_s\n10.0,0.011\n{row}\n")
        with pytest.raises(ValueError, match=r"ret\.csv:3: not a finite number"):
            read_retention_csv(path)

    def test_retention_round_trip(self, tmp_path):
        path = tmp_path / "ret.csv"
        path.write_text("i_cc_uA,retention_s\n10.0,0.011\n300.0,0.9\n")
        records = read_retention_csv(path)
        assert records == [RetentionRecord(10.0, 0.011), RetentionRecord(300.0, 0.9)]
