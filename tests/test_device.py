"""Single-cell model: switching curve, retention law, pulse and relaxation lifecycle.

The lifecycle tests drive one cell, or many independent ones, with the
per-cell reference kernel (``reference_kernel.pulse_update``) on an expiry
vector, the only cell state: a cell is ON at ``t`` while its expiry is after
``t``. They pin the model that the trace chain and the trial sampler are
held to, and read the cells through ``DeviceParams.current_uA``.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from memdecide import DeviceParams, RetentionDistribution, SwitchingCurve

from reference_kernel import pulse_update, retention_times

CURVE = SwitchingCurve(v_median=0.6, v_spread=0.05)
P_CERTAIN = 1.0
P_NEVER = 0.0

# Normal CDF one spread above the median, frozen from the analytic value and
# re-derived below by integrating the density.
PHI_AT_PLUS_ONE_SPREAD = 0.8413447460685429


def _params(median_s=1.0, sigma_log=0.0, i_cc=300.0, **kw):
    return DeviceParams(
        i_cc_uA=i_cc,
        retention=RetentionDistribution(median_s=median_s, sigma_log=sigma_log),
        **kw,
    )


def _pulse(expiry, t, p_on, params, rng):
    """Deliver one pulse to the cells of ``expiry``; returns the array."""
    pulse_update(expiry, t, p_on, params.retention.median_s, params.retention.sigma_log, rng)
    return expiry


def _read(expiry, params, t):
    """``(count_on, current_uA)`` of the cells of ``expiry`` at ``t``."""
    count = int(np.count_nonzero(expiry > t))
    return count, params.current_uA(count, expiry.size)


def _cell_on_until(expiry, rng, **kw):
    """One cell switched ON at t=0 with a deterministic retention of ``expiry``,
    and its parameters."""
    params = _params(median_s=expiry, sigma_log=0.0, **kw)
    return _pulse(np.full(1, -np.inf), 0.0, P_CERTAIN, params, rng), params


class TestSwitchingCurve:
    def test_median_gives_half(self):
        assert CURVE.probability(0.6) == pytest.approx(0.5, abs=1e-15)

    def test_far_left_tail_negligible(self):
        assert CURVE.probability(0.0) < 1e-6

    def test_one_spread_above_median_golden(self):
        assert CURVE.probability(0.65) == pytest.approx(PHI_AT_PLUS_ONE_SPREAD, abs=1e-12)

    def test_golden_value_against_quadrature(self):
        # Independent re-derivation: integrate the set-voltage density up to
        # the pulse amplitude.
        def density(v):
            z = (v - 0.6) / 0.05
            return math.exp(-0.5 * z * z) / (0.05 * math.sqrt(2.0 * math.pi))

        integral, err = quad(density, -np.inf, 0.65)
        assert err < 1e-7  # quad's conservative bound; actual agreement ~1e-16
        assert integral == pytest.approx(PHI_AT_PLUS_ONE_SPREAD, abs=1e-9)

    def test_limits(self):
        assert CURVE.probability(-np.inf) == 0.0
        assert CURVE.probability(np.inf) == 1.0

    @given(
        v1=st.floats(-2.0, 2.0),
        v2=st.floats(-2.0, 2.0),
    )
    def test_monotone_in_amplitude(self, v1, v2):
        lo, hi = sorted((v1, v2))
        assert CURVE.probability(lo) <= CURVE.probability(hi)

    @pytest.mark.parametrize("bad_spread", [0.0, -0.05])
    def test_invalid_spread_rejected(self, bad_spread):
        with pytest.raises(ValueError):
            SwitchingCurve(v_median=0.6, v_spread=bad_spread)

    @pytest.mark.parametrize(
        "median,spread", [(math.nan, 0.05), (math.inf, 0.05), (0.6, math.nan), (0.6, math.inf)]
    )
    def test_non_finite_rejected(self, median, spread):
        with pytest.raises(ValueError):
            SwitchingCurve(v_median=median, v_spread=spread)


class TestRetention:
    @pytest.mark.parametrize("median,sigma", [(0.0, 0.5), (-1.0, 0.5), (1.0, -0.1)])
    def test_invalid_parameters_rejected(self, median, sigma):
        with pytest.raises(ValueError):
            RetentionDistribution(median_s=median, sigma_log=sigma)

    @pytest.mark.parametrize(
        "median,sigma", [(math.inf, 0.5), (math.nan, 0.5), (1.0, math.nan), (1.0, math.inf)]
    )
    def test_non_finite_rejected(self, median, sigma):
        with pytest.raises(ValueError):
            RetentionDistribution(median_s=median, sigma_log=sigma)


class TestRetentionSurvival:
    """``survival(d) = P(R > d)``, the law the collapsed trial sampler uses."""

    @pytest.mark.parametrize("median,sigma", [(0.05, 0.5), (2.0, 0.5), (2.0, 0.0), (1.0, 2.0)])
    def test_certain_at_zero(self, median, sigma):
        assert RetentionDistribution(median, sigma).survival(0.0) == 1.0

    def test_strict_step_without_spread(self):
        # A filament that lives exactly d is OFF at d (the kernel's expiry > t).
        dist = RetentionDistribution(median_s=0.5, sigma_log=0.0)
        d = np.array([0.0, 0.25, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 3.0])
        assert dist.survival(d).tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("median,sigma", [(0.05, 0.5), (2.0, 0.5), (2.0, 0.0), (0.8, 0.1)])
    def test_monotone_decreasing(self, median, sigma):
        s = RetentionDistribution(median, sigma).survival(np.geomspace(1e-6, 1e3, 5001))
        assert np.all(np.diff(s) <= 0.0) and s[0] <= 1.0 and s[-1] >= 0.0

    @pytest.mark.parametrize("median,sigma", [(0.05, 0.5), (2.0, 0.5), (2.0, 0.0)])
    def test_matches_sampled_frequency(self, rng, median, sigma):
        # Against retention times drawn by the reference kernel's own sampler.
        dist = RetentionDistribution(median, sigma)
        n = 10**5
        samples = retention_times(rng, median, sigma, n)
        d = median * np.array([0.3, 0.8, 1.0, 1.5, 4.0])
        s = dist.survival(d)
        freq = (samples[:, np.newaxis] > d).mean(axis=0)
        se = np.sqrt(s * (1.0 - s) / n)
        assert np.all(np.abs(freq - s) <= 3.0 * se), (freq, s)

    @pytest.mark.parametrize("median,sigma", [(0.05, 0.05), (0.05, 0.5), (2.0, 0.5), (0.8, 2.0)])
    def test_matches_scipy_normal_tail(self, median, sigma):
        # Over 12 log-spreads either side of the median (S down to ~1e-33).
        from scipy.stats import norm

        z = np.linspace(-12.0, 12.0, 4801)
        d = median * np.exp(sigma * z)
        expected = norm.sf(np.log(d / median) / sigma)
        got = RetentionDistribution(median, sigma).survival(d)
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)

    def test_keeps_shape(self):
        dist = RetentionDistribution(2.0, 0.5)
        assert dist.survival(np.ones((3, 4))).shape == (3, 4)
        assert dist.survival(np.empty((5, 0))).shape == (5, 0)
        assert np.ndim(dist.survival(1.0)) == 0


def test_survival_with_subnormal_sigma_is_the_step_limit():
    # ln(d / median) / 5e-324 overflows to +-inf, the limit: a step with
    # S = 0.5 at the median itself, computed without a warning.
    dist = RetentionDistribution(median_s=1.0, sigma_log=5e-324)
    d = np.array([0.0, 0.5, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dist.survival(d).tolist() == [1.0, 1.0, 1.0, 0.5, 0.0, 0.0]


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_survival_out_may_be_its_input(sigma):
    dist = RetentionDistribution(median_s=0.8, sigma_log=sigma)
    d = np.linspace(0.0, 3.0, 301).reshape(7, 43)
    expected = dist.survival(d)
    # A transposed (Fortran-ordered) input, then the input itself as out.
    np.testing.assert_array_equal(dist.survival(d.T), expected.T)
    assert dist.survival(d, out=d) is d
    np.testing.assert_array_equal(d, expected)


class TestDeviceParams:
    def test_on_current_is_the_compliance_current(self):
        # c ON cells carry i_cc each, the other N - c leak i_off each.
        params = _params(i_cc=270.0, i_off_uA=0.5)
        assert params.current_uA(3, 10) == 3 * 270.0 + 7 * 0.5
        assert params.current_uA(np.array([0, 10]), 10).tolist() == [5.0, 2700.0]

    def test_compliance_current_must_exceed_leakage(self):
        with pytest.raises(ValueError, match=r"i_cc_uA \(1.0\) must exceed i_off_uA \(2.0\)"):
            _params(i_cc=1.0, i_off_uA=2.0)

    def test_invalid_compliance(self):
        with pytest.raises(ValueError):
            _params(i_cc=0.0)

    @pytest.mark.parametrize(
        "kw",
        [{"i_cc": math.inf}, {"i_cc": math.nan}, {"i_off_uA": math.inf}, {"i_off_uA": math.nan}],
        ids=["i_cc=inf", "i_cc=nan", "i_off=inf", "i_off=nan"],
    )
    def test_non_finite_rejected(self, kw):
        with pytest.raises(ValueError):
            _params(**kw)


class TestApplyPulse:
    def test_certain_switching(self, rng):
        # Switching probability exactly 1, and every retention draw is
        # positive, so all cells are still ON at the pulse.
        params = _params(median_s=2.0, sigma_log=0.5)
        cells = _pulse(np.full(100, -np.inf), 1.0, P_CERTAIN, params, rng)
        assert _read(cells, params, 1.0) == (100, 100 * 300.0)

    def test_impossible_switching(self, rng):
        params = _params()
        cells = _pulse(np.full(100, -np.inf), 1.0, P_NEVER, params, rng)
        assert _read(cells, params, 1.0) == (0, 0.0)

    def test_bernoulli_frequency(self, rng):
        # One pulse at p=0.1 on 1e5 independent cells; 3-standard-error band.
        n = 100_000
        cells = _pulse(np.full(n, -np.inf), 0.0, 0.1, _params(), rng)
        band = 3.0 * math.sqrt(0.1 * 0.9 / n)
        assert abs(np.count_nonzero(cells > 0.0) / n - 0.1) < band

    def test_repulse_refreshes_expiry(self, rng):
        # Deterministic 1 s retention: ON at 3.5 until 4.5. A pulse at 4.0 that
        # switches nothing still rebuilds the filament, so the cell outlives
        # 4.5 and dissolves at 4.0 + 1.0 = 5.0; stacking would give 5.5.
        params = _params(median_s=1.0, sigma_log=0.0)
        cell = _pulse(np.full(1, -np.inf), 3.5, P_CERTAIN, params, rng)
        _pulse(cell, 4.0, P_NEVER, params, rng)
        assert _read(cell, params, 4.75) == (1, 300.0)
        assert _read(cell, params, np.nextafter(5.0, 0.0))[0] == 1
        assert _read(cell, params, 5.0)[0] == 0

    def test_pulse_at_expiry_does_not_refresh(self, rng):
        # The expiry boundary is inclusive for pulses too: ON at 3.0 until 4.0,
        # the cell is already OFF when a never-switching pulse arrives at 4.0.
        params = _params(median_s=1.0, sigma_log=0.0)
        cell = _pulse(np.full(1, -np.inf), 3.0, P_CERTAIN, params, rng)
        _pulse(cell, 4.0, P_NEVER, params, rng)
        assert _read(cell, params, 4.0) == (0, 0.0)

    def test_determinism(self):
        params = _params(median_s=1.0, sigma_log=0.5)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            cell = np.full(1, -np.inf)
            history = []
            for k in range(20):
                _pulse(cell, 0.1 * k, 0.3, params, rng)
                history.append(_read(cell, params, 0.1 * k + 0.05))
            runs.append(history)
        assert runs[0] == runs[1]


class TestRelax:
    def test_before_expiry_unchanged(self, rng):
        assert _read(*_cell_on_until(2.0, rng), 1.0) == (1, 300.0)

    def test_boundary_is_inclusive(self, rng):
        # At t == expiry the filament has dissolved.
        assert _read(*_cell_on_until(2.0, rng), 2.0) == (0, 0.0)

    def test_off_is_absorbing(self, rng):
        cell, params = _cell_on_until(2.0, rng)
        assert _read(cell, params, 2.0)[0] == 0
        assert _read(cell, params, 123.0)[0] == 0
        _pulse(cell, 124.0, P_NEVER, params, rng)
        assert _read(cell, params, 200.0)[0] == 0

    @given(expiry=st.floats(0.1, 100.0), t=st.floats(0.0, 200.0))
    def test_idempotent(self, expiry, t):
        cell, params = _cell_on_until(expiry, np.random.default_rng(0))
        once = _read(cell, params, t)
        assert _read(cell, params, t) == once
        assert once[0] == (1 if t < expiry else 0)

    @given(
        expiry=st.floats(0.1, 100.0),
        t1=st.floats(0.0, 200.0),
        dt=st.floats(0.0, 100.0),
    )
    def test_off_stays_off(self, expiry, t1, dt):
        cell, params = _cell_on_until(expiry, np.random.default_rng(0))
        if _read(cell, params, t1)[0] == 0:
            assert _read(cell, params, t1 + dt)[0] == 0


class TestReadCurrent:
    @pytest.mark.parametrize("i_cc", [300.0, 10.0])
    def test_on_reads_on_current(self, i_cc, rng):
        assert _read(*_cell_on_until(9.0, rng, i_cc=i_cc), 1.0) == (1, i_cc)

    def test_off_reads_leakage(self):
        params = _params(i_off_uA=2.0)
        assert params.current_uA(0, 1) == 2.0
        assert _read(np.full(1, -np.inf), params, 0.0) == (0, 2.0)

    def test_non_destructive(self, rng):
        # Repeated reads neither turn the cell off nor shorten its retention.
        cell, params = _cell_on_until(9.0, rng)
        assert [_read(cell, params, 1.0) for _ in range(5)] == [(1, 300.0)] * 5
        assert _read(cell, params, np.nextafter(9.0, 0.0)) == (1, 300.0)
        assert _read(cell, params, 9.0) == (0, 0.0)
