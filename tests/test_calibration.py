"""Parameter fitting: probit round-trips, retention fits, deck files."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import log_ndtr

from memdecide import (
    DegenerateDataError,
    InsufficientDataError,
    ParamDeck,
    RetentionDistribution,
    RetentionRecord,
    SwitchingCurve,
    SwitchingRecord,
    default_deck,
    fit_retention,
    fit_switching_curve,
    read_deck,
    read_retention_csv,
    read_switching_csv,
    write_deck,
)


def _synthetic_switching(curve, n, rng, lo=0.4, hi=0.8):
    v = rng.uniform(lo, hi, n)
    switched = rng.random(n) < curve.probability(v)
    return [SwitchingRecord(float(a), bool(b)) for a, b in zip(v, switched)]


def _arrays(records):
    return np.array([r.v_pulse_V for r in records]), np.array([r.switched for r in records])


def _probit_nll(mu, log_sigma, v, y):
    """Oracle: probit negative log-likelihood in (median, log spread)."""
    z = (v - mu) / math.exp(log_sigma)
    return -float(np.sum(np.where(y, log_ndtr(z), log_ndtr(-z))))


def _grid_best_log_likelihood(v, y, mus, spreads):
    return max(-_probit_nll(mu, math.log(s), v, y) for mu in mus for s in spreads)


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
        v, y = _arrays(records)
        best = _grid_best_log_likelihood(
            v, y,
            np.linspace(fitted.v_median - 0.02, fitted.v_median + 0.02, 50),
            np.linspace(fitted.v_spread * 0.5, fitted.v_spread * 2.0, 50),
        )
        assert diag.log_likelihood >= best - 1e-9

    def test_interleaved_bands_place_median_between(self, rng):
        # Noisy low/high amplitude bands: mostly misses at 0.58 V, mostly hits
        # at 0.62 V, with some of each flipped so the fit stays identifiable.
        low = [SwitchingRecord(0.58, rng.random() < 0.2) for _ in range(200)]
        high = [SwitchingRecord(0.62, rng.random() < 0.8) for _ in range(200)]
        fitted, _ = fit_switching_curve(low + high)
        assert 0.58 < fitted.v_median < 0.62
        # Brute-force oracle over the identifiable region agrees.
        v, y = _arrays(low + high)
        grid_best, grid_arg = -math.inf, None
        for mu in np.linspace(0.55, 0.65, 101):
            for spread in np.geomspace(0.005, 0.1, 60):
                nll = _probit_nll(mu, math.log(spread), v, y)
                if -nll > grid_best:
                    grid_best, grid_arg = -nll, mu
        assert fitted.v_median == pytest.approx(grid_arg, abs=0.002)

    def test_standard_errors_match_numeric_hessian(self, rng):
        # The SEs of the round trip above, against the inverse of a central-
        # difference Hessian of the oracle NLL in (median, spread).
        records = _synthetic_switching(SwitchingCurve(0.6, 0.05), 10_000, rng)
        fitted, diag = fit_switching_curve(records)
        v, y = _arrays(records)
        theta = np.array([fitted.v_median, fitted.v_spread])
        h = 1e-4 * theta[1]
        nll = lambda t: _probit_nll(t[0], math.log(t[1]), v, y)
        hess = np.empty((2, 2))
        for i, j in np.ndindex(2, 2):
            ei, ej = h * np.eye(2)[i], h * np.eye(2)[j]
            hess[i, j] = (nll(theta + ei + ej) - nll(theta + ei - ej)
                          - nll(theta - ei + ej) + nll(theta - ei - ej)) / (4 * h * h)
        se = np.sqrt(np.diag(np.linalg.inv(hess)))
        assert diag.se_v_median == pytest.approx(se[0], rel=1e-6)
        assert diag.se_v_spread == pytest.approx(se[1], rel=1e-6)

    def test_small_sample_reaches_maximum(self):
        # 30 records whose narrow likelihood ridge can stall a fit short of the
        # maximum (at -4.1402) when it steps in (median, log spread).
        records = _synthetic_switching(SwitchingCurve(0.6, 0.05), 30, np.random.default_rng(245))
        fitted, diag = fit_switching_curve(records)
        assert diag.converged
        v, y = _arrays(records)
        best = _grid_best_log_likelihood(
            v, y, np.linspace(0.55, 0.68, 131), np.geomspace(0.01, 0.05, 161)
        )
        assert best > -4.09
        assert diag.log_likelihood >= best - 1e-9

    @staticmethod
    def _separated():
        v = np.sort(np.random.default_rng(3).uniform(0.4, 0.8, 20))
        return [SwitchingRecord(float(a), bool(a > 0.6)) for a in v]

    @pytest.mark.parametrize("shared", [False, True], ids=["separated", "quasi-separated"])
    def test_separated_outcomes_rejected(self, shared):
        # No finite maximum: the likelihood keeps rising as the curve steepens.
        records = self._separated()
        if shared:
            # One miss at the lowest hit's amplitude: the only overlap.
            lowest_hit = min(r.v_pulse_V for r in records if r.switched)
            records.append(SwitchingRecord(lowest_hit, False))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDataError, match="separated"):
                fit_switching_curve(records)

    def test_decreasing_outcomes_rejected(self, rng):
        # Overlapping outcomes whose switching falls with amplitude.
        curve = SwitchingCurve(0.6, 0.05)
        v = rng.uniform(0.4, 0.8, 500)
        switched = rng.random(500) < 1.0 - curve.probability(v)
        records = [SwitchingRecord(float(a), bool(b)) for a, b in zip(v, switched)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDataError, match="does not rise"):
                fit_switching_curve(records)

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
        table, stderrs = fit_retention(records)
        assert table == [(100.0, RetentionDistribution(1.0, 0.0))]
        assert stderrs == [(0.0, 0.0)]

    def test_round_trip_recovers_generator(self, rng):
        true = RetentionDistribution(0.1, 0.5)
        samples = true.sample(rng, 10_000)
        table, _ = fit_retention([RetentionRecord(50.0, float(s)) for s in samples])
        (_, fitted), = table
        assert fitted.median_s == pytest.approx(0.1, rel=0.02)
        assert fitted.sigma_log == pytest.approx(0.5, rel=0.05)

    def test_standard_errors_match_replicate_spread(self, rng):
        # The asymptotic SEs at the truth against the spread of 400 fits of
        # 300 records each; the spread's own relative SE is about 1/sqrt(800).
        true, n, reps = RetentionDistribution(0.1, 0.5), 300, 400
        fits = [fit_retention([RetentionRecord(50.0, float(s)) for s in true.sample(rng, n)])
                for _ in range(reps)]
        medians = [table[0][1].median_s for table, _ in fits]
        sigmas = [table[0][1].sigma_log for table, _ in fits]
        se_median = np.median([se[0][0] for _, se in fits])
        se_sigma = np.median([se[0][1] for _, se in fits])
        assert se_median == pytest.approx(0.1 * 0.5 * math.sqrt(math.pi / 2 / n), rel=0.05)
        assert se_sigma == pytest.approx(0.5 / math.sqrt(2 * (n - 1)), rel=0.05)
        assert np.std(medians, ddof=1) == pytest.approx(se_median, rel=0.12)
        assert np.std(sigmas, ddof=1) == pytest.approx(se_sigma, rel=0.12)

    def test_two_groups_sorted_and_monotone(self, rng):
        records = []
        for i_cc, median in ((300.0, 1.0), (10.0, 0.01)):
            for s in RetentionDistribution(median, 0.3).sample(rng, 50):
                records.append(RetentionRecord(i_cc, float(s)))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no monotonicity warning expected
            table, stderrs = fit_retention(records)
        assert [i for i, _ in table] == [10.0, 300.0]
        assert len(stderrs) == 2
        assert table[0][1].median_s < table[1][1].median_s

    def test_non_monotone_medians_warn_not_fail(self):
        # The fit passes the table on; the deck built from it warns once and
        # names its caller, not the dataclass's generated __init__.
        records = [RetentionRecord(10.0, 1.0)] * 5 + [RetentionRecord(300.0, 0.01)] * 5
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table, _ = fit_retention(records)
            ParamDeck(SwitchingCurve(0.6, 0.05), table)
        assert len(table) == 2
        assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)]

    def test_small_group_rejected(self):
        records = [RetentionRecord(10.0, 0.01)] * 5 + [RetentionRecord(300.0, 1.0)] * 4
        with pytest.raises(InsufficientDataError, match=r"i_cc=300.0 uA has 4 records, need >= 5"):
            fit_retention(records)


class TestInterpolation:
    TABLE = [
        (10.0, RetentionDistribution(0.01, 0.4)),
        (1000.0, RetentionDistribution(1.0, 0.6)),
    ]
    DECK = ParamDeck(SwitchingCurve(0.6, 0.05), TABLE)

    def test_exact_entry_verbatim(self):
        assert self.DECK.retention_at(10.0) is self.TABLE[0][1]
        assert self.DECK.retention_at(1000.0) is self.TABLE[1][1]

    def test_log_midpoint(self):
        # Hand computation: 10^((log10 0.01 + log10 1.0) / 2) = 0.1.
        dist = self.DECK.retention_at(100.0)
        assert dist.median_s == pytest.approx(0.1, rel=1e-12)
        assert dist.sigma_log == pytest.approx(0.5, abs=1e-12)

    def test_clamped_extrapolation(self):
        assert self.DECK.retention_at(1.0) is self.TABLE[0][1]
        assert self.DECK.retention_at(5000.0) is self.TABLE[1][1]

    def test_one_row_table_holds_at_every_current(self):
        row = RetentionDistribution(2.0, 0.5)
        deck = ParamDeck(SwitchingCurve(0.6, 0.05), [(1.0, row)])
        assert all(deck.retention_at(i_cc) is row for i_cc in (1e-3, 1.0, 270.0, 1e6))

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="retention_table must not be empty"):
            ParamDeck(SwitchingCurve(0.6, 0.05), [])


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

    def test_retention_at_interpolates_default_deck(self):
        # 270 uA lies between the 100 uA (0.1 s) and 300 uA (1 s) rows.
        dist = default_deck().retention_at(270.0)
        assert dist.median_s == pytest.approx(0.1 * 10.0 ** (math.log(2.7) / math.log(3.0)), rel=1e-12)
        assert dist.sigma_log == 0.5


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
