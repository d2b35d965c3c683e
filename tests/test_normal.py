"""The stdlib normal CDF, quantile and log CDF against scipy.special.

``memdecide._normal`` ports the Cephes ``ndtr``/``ndtri`` that scipy runs, so
their comparisons are ``==`` on the float64 bits, not a tolerance: the
sweep reports under ``out/`` record ``p_on`` realised through these
functions, and CI pins the scipy build those rows came from.

``log_ndtr`` is not a port and not bit-identical: it uses scipy's formula on
the Cephes ``erfc`` where scipy uses the Faddeeva package's, so it is checked
to within 8 ulp. The array ``erfc`` evaluates the Cephes tables with
``np.exp``, so it is checked to within 4 ulp of ``scipy.special.erfc``.
"""

import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from memdecide import SwitchingCurve, default_deck, read_deck
from memdecide._normal import _ERFC_IS_2_BELOW, _SQRT_MAXLOG, _erfc, erfc, log_ndtr, ndtr, ndtri

ROOT = Path(__file__).resolve().parent.parent
MAXLOG_EDGE = math.sqrt(2.0 * 7.09782712893383996843e2)  # erfc underflows past a / sqrt(2) = sqrt(MAXLOG)


def _around(*points):
    """Each point and its two float64 neighbours."""
    return [q for p in points for q in (np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf))]


def _assert_bits_equal(mine, theirs):
    mine, theirs = np.asarray(mine, dtype=float), np.asarray(theirs, dtype=float)
    nan = np.isnan(theirs)
    np.testing.assert_array_equal(np.isnan(mine), nan)
    differ = mine[~nan].view(np.int64) != theirs[~nan].view(np.int64)
    assert not differ.any(), f"{differ.sum()} values differ, first at {np.flatnonzero(differ)[:5]}"


def test_ndtr_matches_scipy():
    rng = np.random.default_rng(20221)
    edges = _around(0.0, math.sqrt(0.5), 1.0, math.sqrt(2.0), 8.0, 8.0 * math.sqrt(2.0), MAXLOG_EDGE, 40.0)
    x = np.concatenate([
        rng.uniform(-40.0, 40.0, 20_000),
        rng.uniform(-3.0, 3.0, 20_000),
        edges, np.negative(edges), [-0.0, math.inf, -math.inf, math.nan],
    ])
    _assert_bits_equal([ndtr(v) for v in x.tolist()], special.ndtr(x))


def test_ndtri_matches_scipy():
    rng = np.random.default_rng(20222)
    p = np.concatenate([
        rng.uniform(0.0, 1.0, 20_000),
        10.0 ** rng.uniform(-300.0, 0.0, 20_000),
        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 5_000),
        _around(math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 0.5),
        [5e-324, sys.float_info.min, np.nextafter(1.0, 0.0), 0.0, 1.0],
    ])
    _assert_bits_equal([ndtri(v) for v in p.tolist()], special.ndtri(p))


def test_log_ndtr_within_8_ulp_of_scipy():
    rng = np.random.default_rng(20223)
    # The branch edges: a = -1 (log1p form below it), y = -a / sqrt(2) = 1 and 8 (erfcx's).
    edges = _around(-1.0, -math.sqrt(2.0), -8.0 * math.sqrt(2.0), 0.0, -60.0, 40.0, MAXLOG_EDGE)
    a = np.concatenate([rng.uniform(-60.0, 40.0, 40_000), rng.uniform(-3.0, 3.0, 20_000), edges])
    mine = np.array([log_ndtr(v) for v in a.tolist()])
    theirs = special.log_ndtr(a)
    # Relative to the value, until it underflows toward 0 (a above about 37):
    # there the bound is 8 ulp of the smallest normal double.
    ulp = np.spacing(np.maximum(np.abs(theirs), sys.float_info.min))
    worst = np.argmax(np.abs(mine - theirs) / ulp)
    assert np.all(np.abs(mine - theirs) <= 8 * ulp), (
        f"a = {a[worst]!r}: {mine[worst]!r} against {theirs[worst]!r}")


class TestArrayErfc:
    """``erfc``: the Cephes ``erfc`` of ``_erfc`` over arrays, which retention survival runs on."""

    def test_within_4_ulp_of_scipy(self):
        # scipy's Cephes erfc calls libm's exp. Where numpy's exp is its AVX-512
        # kernel, it differs from libm's by 1 ulp on about 5% of inputs, and
        # the rational carries that to up to 4 ulp of erfc.
        edges = _around(0.0, 1.0, 8.0, _ERFC_IS_2_BELOW, -_ERFC_IS_2_BELOW, _SQRT_MAXLOG, 40.0)
        a = np.concatenate([np.linspace(-40.0, 40.0, 160_001), edges, np.negative(edges)])
        mine, theirs = erfc(a.copy()), special.erfc(a)
        ulp = np.spacing(np.maximum(np.abs(theirs), 5e-324))
        worst = np.argmax(np.abs(mine - theirs) / ulp)
        assert np.all(np.abs(mine - theirs) <= 4 * ulp), (
            f"a = {a[worst]!r}: {mine[worst]!r} against {theirs[worst]!r}")

    def test_exact_values(self):
        a = np.array([math.inf, -math.inf, 0.0, -0.0, math.nan, 1e308, -1e308])
        got = erfc(a)
        assert got[:4].tolist() == [0.0, 2.0, 1.0, 1.0]
        assert math.isnan(got[4])
        assert got[5:].tolist() == [0.0, 2.0]

    @pytest.mark.parametrize("shape", [(), (5, 0), (3, 4)], ids=["0-d", "5x0", "3x4"])
    def test_keeps_shape(self, shape):
        a = np.linspace(-3.0, 3.0, math.prod(shape)).reshape(shape)
        got = erfc(a.copy())
        assert isinstance(got, np.ndarray) and got.shape == shape
        np.testing.assert_array_equal(got.ravel(), erfc(a.ravel()))

    def test_overwrites_its_input(self):
        a = np.linspace(-30.0, 30.0, 601)
        expected = erfc(a.copy())
        assert erfc(a) is a
        np.testing.assert_array_equal(a, expected)

    @pytest.mark.parametrize("a", [1e200, -1e200, 1e308, -1e308])
    def test_no_warning_far_out(self, a):
        # |a| is compared with sqrt(MAXLOG): squaring a would overflow above ~1.3e154.
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert erfc(np.full(3, a)).tolist() == [0.0 if a > 0 else 2.0] * 3

    def test_scalar_is_two_at_and_below_the_cutoff(self):
        # The array version returns 2.0 below the cutoff without evaluating.
        a = np.concatenate([[_ERFC_IS_2_BELOW, np.nextafter(_ERFC_IS_2_BELOW, -1.0)],
                            np.linspace(-40.0, _ERFC_IS_2_BELOW, 20_001)])
        assert all(_erfc(v) == 2.0 for v in a.tolist())
        assert np.all(erfc(a) == 2.0)


def _bundled_p_on_values():
    return sorted({p for path in (ROOT / "configs").glob("*.cfg")
                   for p in json.loads(path.read_text()).get("sweep", {}).get("p_on_values", [])})


@pytest.mark.parametrize("deck", [default_deck(), read_deck(ROOT / "out/fixtures/deck.json")],
                         ids=["default", "fixture"])
def test_realised_p_on_matches_scipy(deck):
    # The expression sweep_cells evaluates, then the same one on scipy.
    curve = deck.switching
    p_on = _bundled_p_on_values()
    assert p_on
    mine = [float(curve.probability(curve.quantile(p))) for p in p_on]
    theirs = [float(special.ndtr(((curve.v_median + curve.v_spread * float(special.ndtri(p)))
                                  - curve.v_median) / curve.v_spread)) for p in p_on]
    _assert_bits_equal(mine, theirs)


class TestSwitchingCurveTypes:
    CURVE = SwitchingCurve(0.6, 0.05)

    def test_scalar_in_scalar_out(self):
        for v in (0.65, np.float64(0.65), np.array(0.65)):
            out = self.CURVE.probability(v)
            assert type(out) is np.float64
            assert out == special.ndtr((0.65 - 0.6) / 0.05)

    def test_array_keeps_shape(self):
        v = np.linspace(0.4, 0.8, 12).reshape(3, 4)
        out = self.CURVE.probability(v)
        assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == (3, 4)
        _assert_bits_equal(out, special.ndtr((v - 0.6) / 0.05))
        assert self.CURVE.probability([0.6]).shape == (1,)

    def test_non_finite_amplitudes(self):
        assert math.isnan(self.CURVE.probability(math.nan))
        assert self.CURVE.probability(math.inf) == 1.0
        assert self.CURVE.probability(-math.inf) == 0.0

    def test_quantile_is_a_float(self):
        assert type(self.CURVE.quantile(np.float64(0.02))) is float
