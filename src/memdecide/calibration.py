"""Fit device-model parameters from measured pulsed-characterization data.

Two kinds of records come in from CSV:

* switching records ``(v_pulse_V, switched)``: binary outcomes of programming
  pulses at various amplitudes, fitted by maximum likelihood to the normal-CDF
  switching curve (probit regression on amplitude);
* retention records ``(i_cc, retention_s)``: measured retention times grouped
  by compliance current, fitted per group to a lognormal via the sample median
  and the standard deviation of log-values. The moment-free fit is robust to
  the heavy tails that retention data shows.

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

from .device import DeviceParams, RetentionDistribution, SwitchingCurve
from .errors import DegenerateDataError, InsufficientDataError
from .stream import parse_finite

__all__ = [
    "SwitchingRecord",
    "RetentionRecord",
    "SwitchingFitDiagnostics",
    "ParamDeck",
    "fit_switching_curve",
    "fit_retention",
    "interpolate_retention",
    "default_deck",
    "device_params",
    "read_switching_csv",
    "read_retention_csv",
    "write_deck",
    "read_deck",
]

RetentionTable = list[tuple[float, RetentionDistribution]]


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
    n_iterations: int
    converged: bool


@dataclass(frozen=True)
class ParamDeck:
    """Switching curve + retention table + provenance note.

    The retention table is kept sorted by compliance current. Non-monotone
    medians are reported as a warning rather than an error: measured box plots
    carry noise and a strict check would reject real data.
    """

    switching: SwitchingCurve
    retention_table: RetentionTable
    provenance: str = ""

    def __post_init__(self):
        table = sorted(self.retention_table, key=lambda row: row[0])
        object.__setattr__(self, "retention_table", table)
        if not table:
            raise ValueError("retention_table must not be empty")
        medians = [dist.median_s for _, dist in table]
        if any(b < a for a, b in zip(medians, medians[1:])):
            warnings.warn(
                "retention medians are not monotone in i_cc", stacklevel=2
            )


# --- switching-curve fit (probit MLE) ---------------------------------------


def _probit_nll_grad(theta: np.ndarray, v: np.ndarray, y: np.ndarray):
    """Negative log-likelihood and gradient in (mu, log sigma) coordinates."""
    from scipy.special import log_ndtr  # lazily: traces and trials never import scipy
    mu, log_sigma = theta
    sigma = math.exp(log_sigma)
    z = (v - mu) / sigma
    # log Phi(z) and log Phi(-z) stay finite far into the tails.
    log_p = log_ndtr(z)
    log_q = log_ndtr(-z)
    nll = -float(np.sum(np.where(y, log_p, log_q)))
    log_phi = -0.5 * z * z - 0.5 * math.log(2.0 * math.pi)
    # d log-lik / dz per record: phi/Phi for hits, -phi/(1-Phi) for misses.
    dldz = np.where(y, np.exp(log_phi - log_p), -np.exp(log_phi - log_q))
    # Chain rule with dz/dmu = -1/sigma and dz/d(log sigma) = -z, negated for nll.
    g_mu = float(np.sum(dldz) / sigma)
    g_ls = float(np.sum(dldz * z))
    return nll, np.array([g_mu, g_ls])


def _numeric_hessian(theta, v, y, h=1e-5):
    hess = np.empty((2, 2))
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        _, g_plus = _probit_nll_grad(theta + step, v, y)
        _, g_minus = _probit_nll_grad(theta - step, v, y)
        hess[:, j] = (g_plus - g_minus) / (2.0 * h)
    return 0.5 * (hess + hess.T)


def _grid_search(v, y, mu_lo, mu_hi, sig_lo, sig_hi, n=50):
    best = (math.inf, None)
    for mu in np.linspace(mu_lo, mu_hi, n):
        for sigma in np.geomspace(sig_lo, sig_hi, n):
            theta = np.array([mu, math.log(sigma)])
            nll, _ = _probit_nll_grad(theta, v, y)
            if nll < best[0]:
                best = (nll, theta)
    return best[1]


def fit_switching_curve(
    records, tol: float = 1e-8, max_iter: int = 500
) -> tuple[SwitchingCurve, SwitchingFitDiagnostics]:
    """Maximum-likelihood normal-CDF fit to binary switching outcomes.

    Damped Newton ascent on the log-likelihood over (median, log spread),
    converged when the parameter change drops below ``tol``; falls back to a
    grid search over a box spanning the observed amplitudes if Newton fails
    to converge. Standard errors come from the observed information matrix.

    Raises :class:`InsufficientDataError` for fewer than 10 records and
    :class:`DegenerateDataError` when all outcomes are identical or all
    amplitudes coincide (the curve is unidentifiable).
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
    if np.ptp(v) == 0.0:
        raise DegenerateDataError("all pulse amplitudes identical; curve unidentifiable")

    mu0 = 0.5 * (float(v[y].mean()) + float(v[~y].mean()))
    sigma0 = max(float(v.std()) / 2.0, 1e-6 * float(np.ptp(v)))
    theta = np.array([mu0, math.log(sigma0)])

    nll, grad = _probit_nll_grad(theta, v, y)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        hess = _numeric_hessian(theta, v, y)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = -grad
        # Backtrack until the likelihood stops getting worse; equality is
        # fine, the parameter-change test below decides convergence.
        scale = 1.0
        accepted = False
        for _ in range(40):
            cand = theta + scale * step
            cand_nll, cand_grad = _probit_nll_grad(cand, v, y)
            if cand_nll <= nll:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            # No improving direction left; a vanishing Newton step means we
            # are at the optimum to working precision.
            converged = float(np.max(np.abs(step))) < tol
            break
        delta = float(np.max(np.abs(cand - theta)))
        theta, nll, grad = cand, cand_nll, cand_grad
        if delta < tol:
            converged = True
            break

    if not converged:
        span = float(np.ptp(v))
        grid_theta = _grid_search(
            v, y,
            mu_lo=float(v.min()), mu_hi=float(v.max()),
            sig_lo=1e-4 * span, sig_hi=span,
        )
        grid_nll, _ = _probit_nll_grad(grid_theta, v, y)
        if grid_nll < nll:
            theta, nll = grid_theta, grid_nll

    mu, sigma = float(theta[0]), math.exp(float(theta[1]))
    hess = _numeric_hessian(theta, v, y)
    try:
        cov = np.linalg.inv(hess)
        se_mu = math.sqrt(max(cov[0, 0], 0.0))
        # Delta method: Var(sigma) = sigma^2 Var(log sigma).
        se_sigma = sigma * math.sqrt(max(cov[1, 1], 0.0))
    except np.linalg.LinAlgError:
        se_mu = se_sigma = math.nan

    curve = SwitchingCurve(v_median=mu, v_spread=sigma)
    diag = SwitchingFitDiagnostics(
        log_likelihood=-nll,
        se_v_median=se_mu,
        se_v_spread=se_sigma,
        n_records=len(records),
        n_iterations=iterations,
        converged=converged,
    )
    return curve, diag


# --- retention fit -----------------------------------------------------------


def fit_retention(records, min_per_group: int = 5) -> RetentionTable:
    """Per-compliance-current lognormal fits, sorted by current.

    Median = sample median; sigma_log = sample standard deviation of the log
    values. Every distinct current needs at least ``min_per_group`` records.
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
    for i_cc in sorted(groups):
        values = np.asarray(groups[i_cc], dtype=float)
        if values.size < min_per_group:
            raise InsufficientDataError(
                f"i_cc={i_cc} uA has {values.size} records, need >= {min_per_group}"
            )
        median = float(np.median(values))
        sigma_log = float(np.std(np.log(values), ddof=1))
        table.append((i_cc, RetentionDistribution(median_s=median, sigma_log=sigma_log)))

    medians = [dist.median_s for _, dist in table]
    if any(b < a for a, b in zip(medians, medians[1:])):
        warnings.warn("retention medians are not monotone in i_cc", stacklevel=2)
    return table


def interpolate_retention(table: RetentionTable, i_cc_uA: float) -> RetentionDistribution:
    """Retention law at an arbitrary compliance current.

    The log of the median is interpolated linearly against the log of the
    current (retention spans decades across the current range); sigma_log is
    interpolated linearly on the same axis. Queries at a tabulated current
    return that entry verbatim, and queries outside the table clamp to the
    nearest end.
    """
    if not table:
        raise ValueError("retention table is empty")
    table = sorted(table, key=lambda row: row[0])
    for i_cc, dist in table:
        if i_cc == i_cc_uA:
            return dist
    if i_cc_uA <= table[0][0]:
        return table[0][1]
    if i_cc_uA >= table[-1][0]:
        return table[-1][1]
    log_i = np.log([row[0] for row in table])
    log_med = np.log([row[1].median_s for row in table])
    sigmas = np.array([row[1].sigma_log for row in table])
    x = math.log(i_cc_uA)
    median = float(np.exp(np.interp(x, log_i, log_med)))
    sigma = float(np.interp(x, log_i, sigmas))
    return RetentionDistribution(median_s=median, sigma_log=sigma)


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


def device_params(
    deck: ParamDeck,
    i_cc_uA: float,
    i_off_uA: float = 0.0,
    retention: RetentionDistribution | None = None,
) -> DeviceParams:
    """Device parameters at a given compliance current.

    Retention comes from the deck's table unless an explicit distribution is
    given; the ON current clamps at compliance.
    """
    if retention is None:
        retention = interpolate_retention(deck.retention_table, i_cc_uA)
    return DeviceParams(i_cc_uA=i_cc_uA, retention=retention, i_off_uA=i_off_uA)


# --- file formats ------------------------------------------------------------

_SWITCHING_HEADER = "v_pulse_V,switched"
_RETENTION_HEADER = "i_cc_uA,retention_s"


def _read_rows(path, expected_header: str):
    """Rows after ``expected_header`` as ``(line number, fields)``; skips blank, ``#`` lines."""
    with open(path) as fh:
        lines = [(lineno, line.strip()) for lineno, line in enumerate(fh, 1)
                 if line.strip() and not line.startswith("#")]
    if not lines or lines[0][1] != expected_header:
        raise ValueError(f"{path}: expected header {expected_header!r}")
    return [(lineno, line.split(",")) for lineno, line in lines[1:]]


def read_switching_csv(path) -> list[SwitchingRecord]:
    """Read ``v_pulse_V,switched`` rows; ``switched`` must be 0 or 1.

    A bad row, or an amplitude that is not a finite number, is a
    ``ValueError`` naming ``path:line``.
    """
    records = []
    for lineno, row in _read_rows(path, _SWITCHING_HEADER):
        if len(row) != 2 or row[1] not in ("0", "1"):
            raise ValueError(f"{path}:{lineno}: bad switching row {','.join(row)!r}")
        records.append(SwitchingRecord(parse_finite(row[0], path, lineno), row[1] == "1"))
    return records


def read_retention_csv(path) -> list[RetentionRecord]:
    """Read ``i_cc_uA,retention_s`` rows; a bad or non-finite one names ``path:line``."""
    records = []
    for lineno, row in _read_rows(path, _RETENTION_HEADER):
        if len(row) != 2:
            raise ValueError(f"{path}:{lineno}: bad retention row {','.join(row)!r}")
        records.append(RetentionRecord(*(parse_finite(x, path, lineno) for x in row)))
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


def read_deck(path) -> ParamDeck:
    with open(path) as fh:
        data = json.load(fh)
    return ParamDeck(
        switching=SwitchingCurve(
            v_median=data["switching"]["v_median_V"],
            v_spread=data["switching"]["v_spread_V"],
        ),
        retention_table=[
            (row["i_cc_uA"], RetentionDistribution(row["median_s"], row["sigma_log"]))
            for row in data["retention_table"]
        ],
        provenance=data["provenance"],
    )
