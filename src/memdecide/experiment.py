"""Monte Carlo harness: accuracy estimation, parameter sweeps, traces.

Accuracy is the fraction of correct choices over independent seeded trials,
reported with a Wilson 95% confidence interval (well behaved both near chance
and near saturation, the two regimes of interest). Sweep cells and trial
chunks get their random streams from :func:`memdecide.seeding.derive_seed`,
so a report is a pure function of its grid (master seed included), and cells
may be evaluated concurrently without changing a single byte of the output.
:func:`sweep_cells` builds every cell of a grid, and :func:`sweep` runs the
cells it is given. Trials and traces take ``p_on`` as given; only
:func:`sweep_cells` maps it through the deck's switching curve (see the
comment there).

Random-number layout, version ``RNG_LAYOUT = 4``: the trials of one cell are
cut into chunks of ``TRIAL_CHUNK`` trials. Chunk ``c`` covers trials
``[TRIAL_CHUNK*c, min(TRIAL_CHUNK*(c+1), trials))`` and is run by
:func:`memdecide.network.run_trials` from ``spawn_rng(cell_seed, "chunk", c)``.
Per chunk of ``m`` trials it draws A's pulse times, then B's, then ``m``
``binomial(N, pi_A)`` end-of-window ON counts, then ``m`` ``binomial(N,
pi_B)``, then ``m`` tie uniforms. A batch can therefore be split or extended
at chunk boundaries without changing any trial: ``run_trials(cfg,
TRIAL_CHUNK, spawn_rng(cell_seed, "chunk", c))`` reproduces chunk ``c`` alone.
(Layout 3 drew each count by running every cell through the per-cell kernel
:func:`memdecide.synapse.pulse_update`, which stays the definition of the
model and the trace path; the counts have the same law.)

Trace repeats are chunked the same way, chunk ``c`` being one ``(m, N)``
expiry array run by :func:`memdecide.synapse.trace_counts` from
``spawn_rng(series_seed, "chunk", c)``. Per pulse, in time order, it draws
``rng.random((m, N))``, then one ``standard_normal`` per lit cell in C order;
reads draw nothing. (Layout 2 drew repeat ``r`` from its own
``spawn_rng(series_seed, "trace", r)``; trace draws are unchanged since
layout 3.)
"""

from __future__ import annotations

import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple, Sequence

import numpy as np

from .calibration import ParamDeck, default_deck
from .device import DeviceParams, check_p_on
from .network import TwoAfcConfig, run_trials
from .seeding import derive_seed, spawn_rng
from .stream import PulseStream
from .synapse import TRIAL_CHUNK, Trace, check_n_devices, trace_counts

__all__ = [
    "RNG_LAYOUT",
    "TRIAL_CHUNK",
    "AccuracyPoint",
    "wilson_interval",
    "estimate_accuracy",
    "sweep_cells",
    "sweep",
    "sample_count",
    "run_trace_experiment",
]

# Two-sided 95% normal quantile, pinned so reports never depend on library
# rounding differences.
_Z95 = 1.959963984540054

# Version of the random-number layout described in the module docstring;
# echoed into every CSV header. Change it whenever the draws change.
RNG_LAYOUT = 4


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion.

    Always contains the point estimate and stays inside [0, 1].
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p_hat = successes / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2.0 * trials)) / denom
    half = (_Z95 / denom) * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials))
    # The interval brackets the point estimate in exact arithmetic; the
    # min/max guards only absorb float rounding at the 0 and 1 endpoints.
    return max(0.0, min(center - half, p_hat)), min(1.0, max(center + half, p_hat))


class AccuracyPoint(NamedTuple):
    """One sweep cell: its grid coordinates and the accuracy estimate.

    The fields are the columns of a sweep report, in order.
    """

    duration_s: float
    n_a: int
    n_b: int
    n_devices: int
    i_cc_uA: float
    p_on: float
    accuracy: float
    ci_low: float
    ci_high: float
    n_trials: int
    n_ties: int


def estimate_accuracy(cfg: TwoAfcConfig, trials: int, master_seed: int) -> AccuracyPoint:
    """Run independent seeded trials and report accuracy with a Wilson CI.

    The trials are run in chunks of ``TRIAL_CHUNK``, chunk ``c`` from
    ``spawn_rng(master_seed, "chunk", c)`` (see the module docstring).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n_correct = 0
    n_ties = 0
    for chunk, start in enumerate(range(0, trials, TRIAL_CHUNK)):
        batch = run_trials(
            cfg, min(TRIAL_CHUNK, trials - start), spawn_rng(master_seed, "chunk", chunk)
        )
        n_correct += int(np.count_nonzero(batch.correct))
        n_ties += int(np.count_nonzero(batch.tie))
    return AccuracyPoint(
        float(cfg.duration_s), cfg.n_a, cfg.n_b, cfg.n_devices,
        float(cfg.params.i_cc_uA), float(cfg.p_on),
        n_correct / trials, *wilson_interval(n_correct, trials), trials, n_ties,
    )


def sweep_cells(
    *,
    durations_s: Sequence[float],
    ratios: Sequence[tuple[int, int]],
    device_counts: Sequence[int],
    i_cc_values_uA: Sequence[float],
    p_on_values: Sequence[float],
    master_seed: int,
    deck: ParamDeck | None = None,
    i_off_uA: float = 0.0,
) -> list[tuple[TwoAfcConfig, int]]:
    """Every cell's ``(config, seed)`` in the product order of the five axes.

    The axes are named like the sweep config's keys, and none may be empty.
    Each cell's retention is ``deck.retention_at`` its compliance current. The
    seed derives from ``master_seed`` and the cell's coordinates.
    All cells are built before any is run, so an invalid value anywhere in
    the grid raises ``ValueError`` up front.
    """
    axes = {"durations_s": durations_s, "ratios": ratios, "device_counts": device_counts,
            "i_cc_values_uA": i_cc_values_uA, "p_on_values": p_on_values}
    for name, values in axes.items():
        if len(values) == 0:
            raise ValueError(f"{name} must not be empty")
    if deck is None:
        deck = default_deck()
    cells = []
    for duration_s, ratio, n_devices, i_cc_uA, p_on in itertools.product(*axes.values()):
        duration_s, n_devices, i_cc_uA, p_on = (
            float(duration_s), int(n_devices), float(i_cc_uA), float(p_on)
        )
        n_a, n_b = int(ratio[0]), int(ratio[1])
        cfg = TwoAfcConfig(
            n_devices=n_devices,
            params=DeviceParams(i_cc_uA, deck.retention_at(i_cc_uA), i_off_uA),
            # The p_on column of the committed reports (out/, perfbench/golden/)
            # records p_on realised through the deck's curve, 0.010000000000000016
            # for 0.01, and the trials draw against it. The round trip runs on
            # memdecide._normal, bit-identical to scipy. Dropping it changes
            # those files, so it waits for a refresh of perfbench/golden/.
            p_on=float(deck.switching.probability(deck.switching.quantile(p_on))),
            n_a=n_a, n_b=n_b, duration_s=duration_s,
        )
        seed = derive_seed(master_seed, duration_s, n_a, n_b, n_devices, i_cc_uA, p_on)
        cells.append((cfg, seed))
    return cells


def sweep(
    cells: Sequence[tuple[TwoAfcConfig, int]],
    trials: int,
    max_workers: int | None = None,
) -> list[AccuracyPoint]:
    """Estimate the accuracy of every ``(config, seed)`` cell over ``trials`` trials.

    ``cells`` is what :func:`sweep_cells` builds. Results come in cell order
    regardless of ``max_workers``, and every cell draws only from its own
    seed, so results are reproducible bit for bit.
    """
    def run(cell):
        return estimate_accuracy(cell[0], trials, cell[1])

    if max_workers is not None and max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(run, cells))
    return list(map(run, cells))


def sample_count(duration_s: float, sample_rate_hz: float, tail_s: float = 0.0) -> int:
    """Number of trace samples ``k / sample_rate_hz`` from 0 through ``duration_s + tail_s``.

    Rejects a rate that is not positive, a tail that is negative or infinite,
    and a grid so large that no float64 array of its samples can exist. A grid
    that could exist but does not fit in memory fails later, when it is made.
    """
    if not (sample_rate_hz > 0.0):
        raise ValueError(f"sample_rate_hz must be > 0, got {sample_rate_hz}")
    if not (0.0 <= tail_s < math.inf):
        raise ValueError(f"tail_s must be finite and >= 0, got {tail_s}")
    span = (duration_s + tail_s) * sample_rate_hz
    if not span < sys.maxsize // 8:
        raise ValueError(f"{span:g} trace samples are too many: a float64 array of them "
                         f"would exceed {sys.maxsize} bytes")
    return int(np.floor(span)) + 1


def run_trace_experiment(
    n: int,
    stream: PulseStream,
    p_on: float,
    params: DeviceParams,
    sample_rate_hz: float,
    repeats: int,
    master_seed: int,
    tail_s: float = 0.0,
) -> Trace:
    """Average ``repeats`` independent synapse traces pointwise.

    Samples run at ``sample_rate_hz`` from 0 through the stream window plus
    ``tail_s`` (the tail shows the relaxation after the last pulse), on the
    grid :func:`sample_count` sizes. The repeats are cut into chunks of
    ``TRIAL_CHUNK``; chunk ``c`` is one ``(m, n)`` expiry array driven by
    :func:`memdecide.synapse.trace_counts` from ``spawn_rng(master_seed,
    "chunk", c)``, so with ``repeats=1`` this is one ``(1, n)`` array under
    that generator.
    """
    check_n_devices(n)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    check_p_on(p_on)
    n_samples = sample_count(stream.duration_s, sample_rate_hz, tail_s)
    sample_times = np.arange(n_samples, dtype=float) / sample_rate_hz

    count_sum = np.zeros(n_samples, dtype=np.int64)
    for start in range(0, repeats, TRIAL_CHUNK):
        expiry = np.full((min(TRIAL_CHUNK, repeats - start), n), -np.inf)
        rng = spawn_rng(master_seed, "chunk", start // TRIAL_CHUNK)
        count_sum += trace_counts(
            expiry, stream.times, p_on, params.retention, sample_times, rng
        )
    mean = count_sum / repeats
    return Trace(
        times=sample_times,
        count_on=mean,
        current_uA=params.current_uA(mean, n),
    )
