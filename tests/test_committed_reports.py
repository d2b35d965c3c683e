"""The committed reports against independent oracles.

Sweeps: the exact conditional-binomial oracle.

Every row of ``out/fig3c``-``fig3f`` is a Monte Carlo accuracy over
``n_trials`` trials. ``exact_accuracy`` gives the cell's exact accuracy a*
at 4000 stream pairs, with the retention the sweep used: the default deck's
interpolated at the row's compliance current, or the config's fixed
override (fig3f), read from the report's own ``# config=`` line.

The rule, fixed before it was run: the two-sided exact binomial tail p-value
``min(1, 2 * min(P(X <= k), P(X >= k)))`` of ``k = accuracy * n_trials``
under ``X ~ Binomial(n_trials, a)``, maximised over a in a* +- 3 oracle
standard errors, must be at least 0.01 / 67 (Bonferroni over the 67 rows).
An exact tail, not a normal z: near saturation (a* = 0.9997 at fig3e 0.5 s
20/10 N = 100) the normal approximation reads z = -5.1 on a row whose exact
p-value is 0.006.

Traces: the exact conditional-binomial mean.

``out/fig2b`` and ``fig2c`` drive N cells with a periodic train, rebuilt from
each file's ``# config=`` line, and average ``repeats`` independent runs.
For a fixed stream the cells and the repeats are independent, so the ON
count summed over repeats at time t, ``k = count_on * repeats``, is exactly
Binomial(repeats * N, pi(t)), with pi from ``exact_trace_mean`` and the
default deck's retention at the row's compliance current. The rule, fixed
before it was run: every row's two-sided exact binomial tail p-value is at
least 0.01 / rows of its file (Bonferroni). Exact tails again: at fig2c
10 uA, t = 1.89 s, one count was seen where 0.006 were expected, which a
normal z reads as 13.3.

Calibration: ``out/calibration`` fits the fixtures that demo 05 drew from a
known ground truth. The rule, fixed before it was run: each of the eight
fitted quantities lies within 3 times its ``stderr`` of that truth.
"""

import csv
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

from memdecide import RetentionDistribution, default_deck

from exact_accuracy import exact_accuracy, exact_trace_mean

ROOT = Path(__file__).resolve().parent.parent
REPORTS = ("fig3c", "fig3d", "fig3e", "fig3f")
N_ROWS = 67
ALPHA = 0.01 / N_ROWS
PAIRS = 4000


def _committed(name, csv_name):
    """The ``# config=`` object and the data rows of ``out/<name>/<csv_name>``."""
    lines = (ROOT / "out" / name / csv_name).read_text().splitlines()
    config = next(line for line in lines if line.startswith("# config="))
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    return json.loads(config.partition("=")[2]), rows


def _rows():
    """``(id, row, retention)`` for every data row of the committed reports."""
    rows = []
    for name in REPORTS:
        config, report = _committed(name, "report.csv")
        sweep = config["sweep"]
        for row in report:
            if "retention_median_s" in sweep:
                retention = RetentionDistribution(sweep["retention_median_s"], sweep.get("sigma_log", 0.5))
            else:
                retention = default_deck().retention_at(float(row["i_cc_uA"]))
            label = (f"{name}:T={row['duration_s']},{row['n_a']}/{row['n_b']},N={row['n_devices']},"
                     f"Icc={row['i_cc_uA']},p={float(row['p_on']):g}")
            rows.append((label, row, retention))
    return rows


ROWS = _rows()


def test_every_report_row_is_checked():
    assert len(ROWS) == N_ROWS


@pytest.mark.parametrize("seed,row,retention", [(i, r[1], r[2]) for i, r in enumerate(ROWS)],
                         ids=[r[0] for r in ROWS])
def test_accuracy_matches_exact_oracle(seed, row, retention):
    exact, se = exact_accuracy(
        int(row["n_devices"]), int(row["n_a"]), int(row["n_b"]), float(row["duration_s"]),
        float(row["p_on"]), retention.median_s, retention.sigma_log, pairs=PAIRS, seed=seed,
    )
    n = int(row["n_trials"])
    k = round(float(row["accuracy"]) * n)
    lo, hi = max(exact - 3.0 * se, 0.0), min(exact + 3.0 * se, 1.0)
    # The p-value is unimodal in a with its peak near k / n: a grid of the
    # interval plus the point of it nearest k / n finds the largest.
    a = np.append(np.linspace(lo, hi, 201), np.clip(k / n, lo, hi))
    p_value = np.max(np.minimum(1.0, 2.0 * np.minimum(binom.cdf(k, n, a), binom.sf(k - 1, n, a))))
    assert p_value >= ALPHA, f"accuracy {k}/{n} against exact {exact:.6f} +- {se:.2g}: p = {p_value:.3g}"


@pytest.mark.parametrize("name", ["fig2b", "fig2c"])
def test_trace_matches_exact_oracle(name):
    config, rows = _committed(name, "trace.csv")
    trace, pulses = config["trace"], config["trace"]["pulses"]
    pulse_times = pulses.get("start_s", 0.0) + np.arange(pulses["n_pulses"]) / pulses["rate_hz"]
    n = trace["repeats"] * trace["n_devices"]
    alpha = 0.01 / len(rows)
    worst = []
    for series, group in itertools.groupby(rows, key=lambda row: row["series"]):
        group = list(group)
        retention = default_deck().retention_at(float(group[0]["i_cc_uA"]))
        t = np.array([float(row["t_s"]) for row in group])
        summed = np.array([float(row["count_on"]) for row in group]) * trace["repeats"]
        k = np.round(summed)
        assert np.all(np.abs(summed - k) < 1e-6), f"{series}: count_on * repeats is not an integer"
        pi = exact_trace_mean(1, pulse_times, t, float(group[0]["p_on"]),
                              retention.median_s, retention.sigma_log)
        p_value = np.minimum(1.0, 2.0 * np.minimum(binom.cdf(k, n, pi), binom.sf(k - 1, n, pi)))
        i = int(np.argmin(p_value))
        worst.append((p_value[i], f"{series}, t = {t[i]} s: {k[i]:.0f} of {n} against {n * pi[i]:.4g}"))
    p_min, where = min(worst)
    assert p_min >= alpha, f"{where}: p = {p_min:.3g} < {alpha:.3g}"


# Demo 05's ground truth, by calibration.csv quantity.
CALIBRATION_TRUTH = {
    "switching_v_median_V": 0.6,
    "switching_v_spread_V": 0.05,
    "retention_median_s@10uA": 0.01,
    "retention_median_s@100uA": 0.1,
    "retention_median_s@300uA": 1.0,
    "retention_sigma_log@10uA": 0.5,
    "retention_sigma_log@100uA": 0.5,
    "retention_sigma_log@300uA": 0.5,
}
CALIBRATION = {
    row["quantity"]: (float(row["value"]), float(row["stderr"]))
    for row in csv.DictReader(line for line in (ROOT / "out/calibration/calibration.csv")
                              .read_text().splitlines() if not line.startswith("#"))
}


@pytest.mark.parametrize("quantity", CALIBRATION_TRUTH)
def test_calibration_recovers_ground_truth(quantity):
    value, stderr = CALIBRATION[quantity]
    assert stderr > 0.0
    z = (value - CALIBRATION_TRUTH[quantity]) / stderr
    assert abs(z) <= 3.0, f"{quantity} = {value} +- {stderr:.3g}: z = {z:+.2f}"
