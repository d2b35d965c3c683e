"""Fit device-model parameters from measured pulsed-characterization data.

Two kinds of records come in from CSV, read by :func:`memdecide.reports.read_csv`:

* switching records ``(v_pulse_V, switched)``: binary outcomes of programming
  pulses at various amplitudes, fitted by maximum likelihood to the normal-CDF
  switching curve (probit regression on amplitude, one Newton loop on its
  concave log-likelihood). Data with no finite rising fit (hits and misses
  separated by amplitude, or switching that falls with amplitude) raises
  :class:`DegenerateDataError`;
* retention records ``(i_cc, retention_s)``: measured retention times grouped
  by compliance current, fitted per group to a lognormal via the sample median
  and the standard deviation of log-values, with their asymptotic standard
  errors. The moment-free fit is robust to the heavy tails that retention
  data shows.

Both fits run on numpy and :mod:`memdecide._normal`; no fit imports scipy.

The output is a parameter deck: one switching curve plus a retention table
mapping compliance current to a retention distribution, interpolable at any
current inside (or clamped outside) the measured range. Decks serialize to
JSON with stable key order and round-trip exactly.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._normal import log_ndtr
from .device import RetentionDistribution, SwitchingCurve, check_i_cc
from .errors import DegenerateDataError, InsufficientDataError
from .reports import parse_finite, read_csv

__all__ = [
    "SwitchingRecord",
    "RetentionRecord",
    "SwitchingFitDiagnostics",
    "ParamDeck",
    "fit_switching_curve",
    "fit_retention",
    "default_deck",
    "read_switching_csv",
    "read_retention_csv",
    "write_deck",
    "read_deck",
]

RetentionTable = list[tuple[float, RetentionDistribution]]

MIN_RETENTION_RECORDS = 5  # per compliance current


class SwitchingRecord(NamedTuple):
    v_pulse_V: float
    switched: bool


class RetentionRecord(NamedTuple):
    i_cc_uA: float
    retention_s: float


@dataclass(frozen=True)
class SwitchingFitDiagnostics:
    log_likelihood: float
    se_v_median: float
    se_v_spread: float
    n_records: int
    converged: bool


@dataclass(frozen=True)
class ParamDeck:
    """Switching curve + retention table + provenance note.

    The retention table is kept sorted by compliance current, and its
    currents must be > 0 (the table is interpolated on their log) and
    distinct. Non-monotone medians are reported as a warning rather than an
    error: measured box plots carry noise and a strict check would reject
    real data.
    """

    switching: SwitchingCurve
    retention_table: RetentionTable
    provenance: str = ""

    def __post_init__(self):
        table = sorted(self.retention_table, key=lambda row: row[0])
        object.__setattr__(self, "retention_table", table)
        if not table:
            raise ValueError("retention_table must not be empty")
        for i_cc, _ in table:
            check_i_cc(i_cc)
        for (i_cc, _), (next_i_cc, _) in zip(table, table[1:]):
            if i_cc == next_i_cc:
                raise ValueError(f"retention_table has two rows at i_cc_uA {i_cc}")
        medians = [dist.median_s for _, dist in table]
        if any(b < a for a, b in zip(medians, medians[1:])):
            # stacklevel 3 names the caller, past the generated __init__.
            warnings.warn("retention medians are not monotone in i_cc", stacklevel=3)

    def retention_at(self, i_cc_uA: float) -> RetentionDistribution:
        """Retention law at an arbitrary compliance current.

        The log of the median is interpolated linearly against the log of the
        current (retention spans decades across the current range); sigma_log
        is interpolated linearly on the same axis. A tabulated current returns
        its row verbatim, and a current outside the table clamps to the
        nearest end, so a one-row table gives its row at every current.
        """
        table = self.retention_table
        if i_cc_uA <= table[0][0]:
            return table[0][1]
        if i_cc_uA >= table[-1][0]:
            return table[-1][1]
        for i_cc, dist in table:
            if i_cc == i_cc_uA:
                return dist
        log_i = np.log([i_cc for i_cc, _ in table])
        x = math.log(i_cc_uA)
        median = float(np.exp(np.interp(x, log_i, np.log([d.median_s for _, d in table]))))
        sigma = float(np.interp(x, log_i, [d.sigma_log for _, d in table]))
        return RetentionDistribution(median_s=median, sigma_log=sigma)


# --- switching-curve fit (probit MLE) ---------------------------------------


def _probit_terms(theta: np.ndarray, v: np.ndarray, y: np.ndarray):
    """Negative log-likelihood, gradient and Hessian in ``z = a + b*v`` coordinates.

    Each record contributes ``log Phi(s*z)``, ``s = +1`` for a hit and ``-1``
    for a miss. With ``lam = phi/Phi`` at the signed ``z``, its gradient in
    ``(a, b)`` is ``-s*lam*(1, v)`` and its Hessian ``w*(1, v)(1, v)^T`` with
    ``w = lam*(lam + z) > 0``, so the NLL is convex (Pratt 1981).
    """
    sign = np.where(y, 1.0, -1.0)
    z = sign * (theta[0] + theta[1] * v)
    # log Phi stays finite far into the tails, where Phi itself underflows.
    log_cdf = np.fromiter(map(log_ndtr, z.tolist()), float, z.size)
    lam = np.exp(-0.5 * z * z - 0.5 * math.log(2.0 * math.pi) - log_cdf)
    w = lam * (lam + z)
    g = -sign * lam
    grad = np.array([np.sum(g), np.sum(g * v)])
    wv = w * v
    hess = np.array([[np.sum(w), np.sum(wv)], [np.sum(wv), np.sum(wv * v)]])
    return -float(np.sum(log_cdf)), grad, hess


def fit_switching_curve(records) -> tuple[SwitchingCurve, SwitchingFitDiagnostics]:
    """Maximum-likelihood normal-CDF fit to binary switching outcomes.

    Newton's method with step halving on the probit model ``P(switch) =
    Phi(a + b*v)``, whose log-likelihood is concave in ``(a, b)``; the curve
    is ``v_median = -a/b``, ``v_spread = 1/b``. It stops when a step changes
    ``(a, b)`` by at most ``1e-10`` relative, or unconverged after 100 steps.
    Standard errors come from the inverse Hessian by the delta method.

    Raises :class:`InsufficientDataError` for fewer than 10 records and
    :class:`DegenerateDataError` when no finite rising curve fits: all
    outcomes identical, hits and misses separated by amplitude (no miss above
    the lowest hit, or no hit above the lowest miss; Albert & Anderson 1984),
    or a fitted slope that is not positive.
    """
    records = list(records)
    if len(records) < 10:
        raise InsufficientDataError(
            f"need at least 10 switching records, got {len(records)}"
        )
    v = np.array([r[0] for r in records], dtype=float)
    y = np.array([bool(r[1]) for r in records])
    if y.all() or not y.any():
        raise DegenerateDataError("all switching outcomes identical; curve unidentifiable")
    if v[~y].max() <= v[y].min() or v[y].max() <= v[~y].min():
        raise DegenerateDataError(
            "hits and misses are separated by pulse amplitude; no finite switching curve fits"
        )

    mu0 = 0.5 * (float(v[y].mean()) + float(v[~y].mean()))
    sigma0 = float(v.std()) / 2.0
    theta = np.array([-mu0 / sigma0, 1.0 / sigma0])
    nll, grad, hess = _probit_terms(theta, v, y)
    converged = False
    for _ in range(100):
        step = np.linalg.solve(hess, -grad)
        while True:
            cand = theta + step
            cand_terms = _probit_terms(cand, v, y)
            # Holds at the latest once the step no longer moves theta.
            if cand_terms[0] <= nll:
                break
            step = step / 2.0
        converged = bool(np.linalg.norm(cand - theta) <= 1e-10 * np.linalg.norm(cand))
        theta, (nll, grad, hess) = cand, cand_terms
        if converged:
            break

    a, b = float(theta[0]), float(theta[1])
    if not b > 0.0:
        raise DegenerateDataError(
            f"switching does not rise with pulse amplitude (fitted slope {b:g} per V)"
        )
    cov = np.linalg.inv(hess)
    # Delta method: d(mu)/d(a, b) = (-1/b, a/b^2), d(sigma)/d(a, b) = (0, -1/b^2).
    jac_mu = np.array([-1.0 / b, a / (b * b)])
    curve = SwitchingCurve(v_median=-a / b, v_spread=1.0 / b)
    diag = SwitchingFitDiagnostics(
        log_likelihood=-nll,
        se_v_median=math.sqrt(jac_mu @ cov @ jac_mu),
        se_v_spread=math.sqrt(cov[1, 1]) / (b * b),
        n_records=len(records),
        converged=converged,
    )
    return curve, diag


# --- retention fit -----------------------------------------------------------


def fit_retention(records) -> tuple[RetentionTable, list[tuple[float, float]]]:
    """Per-compliance-current lognormal fits, sorted by current, and their standard errors.

    Median ``m`` = sample median; sigma_log = sample standard deviation of the
    log values. Every distinct current needs at least ``MIN_RETENTION_RECORDS``
    records. The second list holds ``(se_median_s, se_sigma_log)`` per table
    row, asymptotic for ``n`` lognormal records: ``m*sigma*sqrt(pi/2)/sqrt(n)``
    and ``sigma/sqrt(2(n - 1))``. Non-monotone medians pass; the
    :class:`ParamDeck` built from them warns.
    """
    groups: dict[float, list[float]] = {}
    for r in records:
        i_cc, retention = float(r[0]), float(r[1])
        if retention <= 0.0:
            raise ValueError(f"retention_s must be > 0, got {retention}")
        groups.setdefault(i_cc, []).append(retention)
    if not groups:
        raise InsufficientDataError("no retention records given")

    table: RetentionTable = []
    stderrs = []
    for i_cc in sorted(groups):
        values = np.asarray(groups[i_cc], dtype=float)
        n = values.size
        if n < MIN_RETENTION_RECORDS:
            raise InsufficientDataError(
                f"i_cc={i_cc} uA has {n} records, need >= {MIN_RETENTION_RECORDS}"
            )
        # The middle order statistic(s): np.median would load numpy.ma mid-run.
        ordered = np.sort(values)
        median = float(ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2)
        sigma_log = float(np.std(np.log(values), ddof=1))
        table.append((i_cc, RetentionDistribution(median_s=median, sigma_log=sigma_log)))
        stderrs.append((median * sigma_log * math.sqrt(math.pi / 2.0 / n),
                        sigma_log / math.sqrt(2.0 * (n - 1))))
    return table, stderrs


def default_deck() -> ParamDeck:
    """Built-in placeholder deck used when no measured data is supplied.

    Switching: normal CDF with median 0.6 V and spread 0.05 V. Retention:
    10 ms at 10 µA, 100 ms at 100 µA, 1 s at 300 µA, log-spread 0.5
    throughout, monotone in current and spanning milliseconds to seconds.
    These are configurable defaults, not measured ground truth.
    """
    sigma = 0.5
    return ParamDeck(
        switching=SwitchingCurve(v_median=0.6, v_spread=0.05),
        retention_table=[
            (10.0, RetentionDistribution(median_s=0.01, sigma_log=sigma)),
            (100.0, RetentionDistribution(median_s=0.1, sigma_log=sigma)),
            (300.0, RetentionDistribution(median_s=1.0, sigma_log=sigma)),
        ],
        provenance="built-in default deck (placeholder values, not measured data)",
    )


# --- file formats ------------------------------------------------------------

def read_switching_csv(path) -> list[SwitchingRecord]:
    """Read ``v_pulse_V,switched`` rows; ``switched`` must be 0 or 1.

    A bad row, or an amplitude that is not a finite number, is a
    ``ValueError`` naming ``path:line``.
    """
    records = []
    for lineno, (v, switched) in read_csv(path, SwitchingRecord._fields)[1]:
        if switched not in ("0", "1"):
            raise ValueError(f"{path}:{lineno}: switched must be 0 or 1, got {switched!r}")
        records.append(SwitchingRecord(parse_finite(v, path, lineno), switched == "1"))
    return records


def read_retention_csv(path) -> list[RetentionRecord]:
    """Read ``i_cc_uA,retention_s`` rows.

    A bad row, a value that is not a finite number, a current that is not
    > 0 or a retention time that is not > 0 is a ``ValueError`` naming
    ``path:line``.
    """
    records = []
    for lineno, row in read_csv(path, RetentionRecord._fields)[1]:
        i_cc, retention = (parse_finite(x, path, lineno) for x in row)
        try:
            check_i_cc(i_cc)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if not retention > 0.0:
            raise ValueError(f"{path}:{lineno}: retention_s must be > 0, got {retention}")
        records.append(RetentionRecord(i_cc, retention))
    return records


def _deck_to_dict(deck: ParamDeck) -> dict:
    return {
        "provenance": deck.provenance,
        "retention_table": [
            {"i_cc_uA": i_cc, "median_s": dist.median_s, "sigma_log": dist.sigma_log}
            for i_cc, dist in deck.retention_table
        ],
        "switching": {
            "v_median_V": deck.switching.v_median,
            "v_spread_V": deck.switching.v_spread,
        },
    }


def write_deck(deck: ParamDeck, path) -> None:
    """Serialize a deck as JSON with stable key order (exact round-trip)."""
    with open(path, "w", newline="") as fh:
        json.dump(_deck_to_dict(deck), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _numbers(node: dict, path: str, *keys: str) -> list:
    """``node``'s values at ``keys``, each a JSON number, not a bool; an error names ``path.key``."""
    for key in keys:
        if isinstance(node[key], bool) or not isinstance(node[key], (int, float)):
            raise ValueError(f"{path}.{key} must be a number, got {node[key]!r}")
    return [node[key] for key in keys]


def read_deck(path) -> ParamDeck:
    """Read a deck written by :func:`write_deck`; every numeric field must be a JSON number."""
    with open(path) as fh:
        data = json.load(fh)
    rows = [_numbers(row, f"retention_table[{i}]", "i_cc_uA", "median_s", "sigma_log")
            for i, row in enumerate(data["retention_table"])]
    return ParamDeck(
        switching=SwitchingCurve(*_numbers(data["switching"], "switching", "v_median_V", "v_spread_V")),
        retention_table=[(i_cc, RetentionDistribution(median, sigma)) for i_cc, median, sigma in rows],
        provenance=data["provenance"],
    )
