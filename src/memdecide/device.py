"""Stochastic compact model of a single volatile 1T1R resistive-switching cell.

The cell is binary. OFF means the conductive filament is absent and the cell
carries only leakage; ON means the filament bridges the oxide and the current
is clamped at the compliance level set by the series transistor. Two random
mechanisms drive the dynamics:

* **Switching.** A pulse turns an OFF cell ON with probability ``p_on``, the
  only property of a pulse that the simulation sees. :class:`SwitchingCurve`
  maps a pulse amplitude to ``p_on`` (the normal CDF of the set voltage) for
  calibration and decks, through :mod:`memdecide._normal`, the stdlib port of
  Cephes ``ndtr``/``ndtri`` that is bit-identical to ``scipy.special``; no
  module of the package imports scipy. It is independent of the compliance
  current: filament formation has no memory of the limit that applies once
  it conducts.

* **Relaxation.** An ON cell spontaneously returns to OFF after a random
  retention time, lognormal with a given median and log-domain spread. The
  retention median is the knob that the compliance current controls, from
  milliseconds up to seconds. The only hidden state of an ON cell is the
  absolute time at which its filament dissolves.

A pulse delivered to a cell that is already ON rebuilds the filament: the
expiry is resampled from the retention distribution (refresh, not stacking).
This module holds the parameters of that model, and every field must be
finite. The commands draw the ON counts that the model implies; the tests
hold them to ``tests/reference_kernel.py``, which keeps one filament-expiry
time per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._normal import erfc, ndtr, ndtri

__all__ = ["SwitchingCurve", "RetentionDistribution", "DeviceParams", "check_p_on", "check_i_cc",
           "check_i_off"]


def _require_finite(obj, *fields) -> None:
    for name in fields:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def check_p_on(p_on: float) -> None:
    """Reject a per-pulse switching probability outside [0, 1], NaN included."""
    if not 0.0 <= p_on <= 1.0:
        raise ValueError(f"p_on must lie in [0, 1], got {p_on}")


def check_i_cc(i_cc_uA: float) -> None:
    """Reject a compliance current that is not positive and finite, NaN included."""
    if not (i_cc_uA > 0.0):
        raise ValueError(f"i_cc_uA must be > 0, got {i_cc_uA}")
    if i_cc_uA == math.inf:
        raise ValueError(f"i_cc_uA must be finite, got {i_cc_uA}")


def check_i_off(i_off_uA: float) -> None:
    """Reject a leakage current that is negative, NaN included."""
    if not (i_off_uA >= 0.0):
        raise ValueError(f"i_off_uA must be >= 0, got {i_off_uA}")


@dataclass(frozen=True)
class SwitchingCurve:
    """Normal-CDF switching-probability curve.

    ``v_median`` is the pulse amplitude at which switching probability is 0.5;
    ``v_spread`` (> 0) is the standard deviation of the underlying set-voltage
    distribution. Both methods run on :mod:`memdecide._normal`, bit-identical
    to ``scipy.special.ndtr``/``ndtri``.
    """

    v_median: float
    v_spread: float

    def __post_init__(self):
        _require_finite(self, "v_median", "v_spread")
        if not (self.v_spread > 0.0):
            raise ValueError(f"v_spread must be > 0, got {self.v_spread}")

    def probability(self, v):
        """P(switch ON) at amplitude ``v``: a float64 scalar, or an array of ``v``'s shape."""
        x = (np.asarray(v, dtype=float) - self.v_median) / self.v_spread
        return np.fromiter(map(ndtr, x.ravel().tolist()), float, x.size).reshape(x.shape)[()]

    def quantile(self, p: float) -> float:
        """Pulse amplitude at which the switching probability equals ``p``."""
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile requires 0 < p < 1, got {p}")
        return self.v_median + self.v_spread * ndtri(float(p))


@dataclass(frozen=True)
class RetentionDistribution:
    """Lognormal retention-time law, parameterized by median and log-spread.

    ``sigma_log`` is the standard deviation of the natural log of the retention
    time; 0 degenerates to a deterministic retention of exactly ``median_s``.
    Retention times are strictly positive.
    """

    median_s: float
    sigma_log: float = 0.0

    def __post_init__(self):
        _require_finite(self, "median_s", "sigma_log")
        if not (self.median_s > 0.0):
            raise ValueError(f"median_s must be > 0, got {self.median_s}")
        if self.sigma_log < 0.0:
            raise ValueError(f"sigma_log must be >= 0, got {self.sigma_log}")

    def survival(self, d, out=None) -> np.ndarray:
        """``P(R > d)`` for a retention time ``R``, elementwise over an array of ``d >= 0``.

        At ``sigma_log = 0`` this is the step ``d < median_s``: a filament
        that lives exactly ``d`` is OFF at ``d``, as a cell is ON only while
        its expiry is strictly after the read time. Otherwise it is
        ``erfc(ln(d / median_s) / (sigma_log * sqrt(2))) / 2`` through
        :func:`memdecide._normal.erfc`, the Cephes ``erfc`` on numpy arrays,
        so no run needs scipy. ``out``, a C-contiguous float64 array of
        ``d``'s shape, receives the result and may be ``d`` itself; by
        default it is a new array.
        """
        d = np.asarray(d, dtype=float)
        x = np.empty(d.shape) if out is None else out
        if self.sigma_log == 0.0:
            return np.less(d, self.median_s, out=x)
        # Scaled in the order scipy's ndtr uses (divide, then times sqrt(1/2)),
        # which keeps S within 1e-14 relative of norm.sf over +-16 log-spreads.
        # S(0) = 1: log(0) = -inf. A subnormal sigma_log overflows x to +-inf,
        # the limit: a step with S = 0.5 at d == median_s.
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(d, self.median_s, out=x)
            np.log(x, out=x)
            x /= self.sigma_log
            x *= math.sqrt(0.5)
        erfc(x)
        x *= 0.5
        return x


@dataclass(frozen=True)
class DeviceParams:
    """Full parameter set of one cell.

    An ON cell carries the compliance current ``i_cc_uA``, where its current
    clamps. ``i_off_uA`` defaults to 0 because the OFF-state resistance is
    several orders of magnitude above ON and is negligible at microampere
    scale.
    """

    i_cc_uA: float
    retention: RetentionDistribution
    i_off_uA: float = 0.0

    def __post_init__(self):
        check_i_cc(self.i_cc_uA)
        _require_finite(self, "i_cc_uA", "i_off_uA")
        check_i_off(self.i_off_uA)
        if not (self.i_cc_uA > self.i_off_uA):
            raise ValueError(f"i_cc_uA ({self.i_cc_uA}) must exceed i_off_uA ({self.i_off_uA})")

    def current_uA(self, count_on, n: int):
        """Summed current of ``n`` cells of which ``count_on`` are ON (vectorizes over counts)."""
        return count_on * self.i_cc_uA + (n - count_on) * self.i_off_uA
