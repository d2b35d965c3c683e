"""Monte Carlo harness: accuracy estimation, parameter sweeps, traces.

Accuracy is the fraction of correct choices over independent seeded trials,
reported with a Wilson 95% confidence interval (well behaved both near chance
and near saturation, the two regimes of interest). Sweep cells and their
sets of pulse streams get their generators from
:func:`memdecide.seeding.derive_seed`, so a report is a pure function of its
grid (master seed included), and each row of it a pure function of its own
coordinates and the master seed. :func:`sweep_cells` builds every cell of a
grid, and :func:`sweep` runs the cells it is given. Trials and traces take
``p_on`` as given; only :func:`sweep_cells` maps it through the deck's
switching curve (see the comment there).

Random-number layout, version ``RNG_LAYOUT = 8``: a cell's pulse times come
from its stream seed, which :func:`sweep_cells` derives from the master seed
and the stream axes alone, ``derive_seed(master_seed, "streams", duration_s,
n_a, n_b)``: ``spawn_rng(stream_seed, "A")`` draws A's times and ``"B"``
B's (:func:`memdecide.stream.random_times`). Every cell of a grid with that
window and ratio reuses them, whatever its N, compliance current and
``p_on``. The cell's own ``spawn_rng(cell_seed, "readout")`` draws each
trial's ``binomial(N, pi_A)`` and ``binomial(N, pi_B)`` end-of-window ON
counts and tie coin (:func:`memdecide.network.read_out`). Each generator is
made once per run and draws trial after trial, so a run of ``n`` trials is
the first ``n`` of every longer run, whatever ``TRIAL_CHUNK``. A row depends
only on its own coordinates and the master seed, never on the rest of the
grid. Rows that share streams are positively correlated, which tightens
differences along N, the compliance current and ``p_on``; each row's Wilson
interval is marginal. Every trial runs through this one layout:
:func:`estimate_accuracy` and :func:`run_trials` run the one-cell grid whose
cell seed is their master seed, and ``trial`` writes that cell's trial 0.

A trace series is one generator, ``spawn_rng(series_seed, "chain")``, and
one :func:`memdecide.synapse.trace_counts` chain over its ``repeats * N``
cells. Per pulse, in time order, it draws one ``binomial`` (the OFF cells
that switch), then one ``multinomial`` (the lit cells over the ages of the
samples up to the next pulse, and that pulse). The README records what
earlier layouts drew.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import NamedTuple, Sequence

import numpy as np

from .calibration import ParamDeck, default_deck
from .device import DeviceParams, check_p_on
from .network import TrialBatch, TwoAfcConfig, check_trial_devices, on_probability, read_out, stream_gaps
from .seeding import derive_seed, spawn_rng
from .stream import TRIAL_CHUNK, PulseStream, random_times
from .synapse import Trace, trace_counts

__all__ = [
    "RNG_LAYOUT",
    "TRIAL_CHUNK",
    "AccuracyPoint",
    "wilson_interval",
    "stream_seed",
    "estimate_accuracy",
    "run_trials",
    "sweep_cells",
    "sweep",
    "sample_count",
    "trace_cells",
    "run_trace_experiment",
]

# Two-sided 95% normal quantile, pinned so reports never depend on library
# rounding differences.
_Z95 = 1.959963984540054

# Version of the random-number layout described in the module docstring;
# echoed into every CSV header. Change it whenever the draws change.
RNG_LAYOUT = 8


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


def stream_seed(master_seed: int, duration_s: float, n_a: int, n_b: int) -> int:
    """The seed of the pulse streams that every cell with this window and ratio draws from."""
    return derive_seed(master_seed, "streams", duration_s, n_a, n_b)


def _cell(cfg: TwoAfcConfig, master_seed: int) -> tuple[TwoAfcConfig, int, int]:
    """The one-cell grid of ``cfg``: cell seed ``master_seed``, stream seed :func:`stream_seed` of it."""
    return cfg, master_seed, stream_seed(master_seed, float(cfg.duration_s), cfg.n_a, cfg.n_b)


def estimate_accuracy(cfg: TwoAfcConfig, trials: int, master_seed: int) -> AccuracyPoint:
    """Run independent seeded trials and report accuracy with a Wilson CI.

    This is the one-cell :func:`sweep` of ``cfg`` with cell seed
    ``master_seed`` and the stream seed :func:`stream_seed` derives from it
    (see the module docstring).
    """
    return sweep([_cell(cfg, master_seed)], trials)[0]


def run_trials(cfg: TwoAfcConfig, trials: int, master_seed: int) -> TrialBatch:
    """The trials that ``estimate_accuracy(cfg, trials, master_seed)`` counts, one entry each, in order.

    Both synapses are read at exactly ``t = duration_s``.
    """
    chunks = [batch for _, batch in _trial_batches([_cell(cfg, master_seed)], trials)]
    return TrialBatch(*map(np.concatenate, zip(*chunks)))


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
) -> list[tuple[TwoAfcConfig, int, int]]:
    """Every cell's ``(config, seed, stream_seed)`` in the product order of the five axes.

    The axes are named like the sweep config's keys, and none may be empty.
    Each cell's retention is ``deck.retention_at`` its compliance current. The
    seed derives from ``master_seed`` and the cell's coordinates, and the
    stream seed from ``master_seed`` and the window and ratio alone
    (:func:`stream_seed`). All cells are built before any is run, so an
    invalid value anywhere in the grid raises ``ValueError`` up front.
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
        cells.append((cfg, seed, stream_seed(master_seed, duration_s, n_a, n_b)))
    return cells


def _trial_batches(cells: Sequence[tuple[TwoAfcConfig, int, int]], trials: int):
    """Yield ``(cell index, TrialBatch)`` for every chunk of every ``(config, seed, stream_seed)`` cell.

    Cells that share a stream seed, window and ratio share each chunk's pulse
    times. Per chunk, the gaps of both streams are one
    :func:`memdecide.network.stream_gaps` matrix, whose survival is one call
    per retention law, and each stream's ``pi`` is one
    :func:`memdecide.network.on_probability` recurrence per law over all its
    ``p_on`` values. Each cell then draws its counts and tie coins from its
    own seed (the layout in the module docstring). A cell's chunks come in
    trial order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # Cell indices by stream set, then retention law, then p_on: what each
    # level computes is shared by every cell below it.
    stream_sets: dict = {}
    for i, (cfg, _, stream) in enumerate(cells):
        laws = stream_sets.setdefault((stream, cfg.duration_s, cfg.n_a, cfg.n_b), {})
        laws.setdefault(cfg.params.retention, {}).setdefault(cfg.p_on, []).append(i)
    readout = [spawn_rng(seed, "readout") for _, seed, _ in cells]
    for (stream, duration_s, n_a, n_b), laws in stream_sets.items():
        streams = [(n, spawn_rng(stream, label)) for n, label in ((n_a, "A"), (n_b, "B"))]
        for start in range(0, trials, TRIAL_CHUNK):
            m = min(TRIAL_CHUNK, trials - start)
            gaps = stream_gaps([random_times(n, duration_s, m, rng) for n, rng in streams], duration_s)
            for retention, by_p_on in laws.items():
                survive = retention.survival(gaps)
                pi_a, pi_b = (on_probability(s, list(by_p_on)) for s in (survive[:n_a], survive[n_a:]))
                for a, b, members in zip(pi_a, pi_b, by_p_on.values()):
                    for i in members:
                        yield i, read_out(cells[i][0], a, b, readout[i])


def sweep(cells: Sequence[tuple[TwoAfcConfig, int, int]], trials: int) -> list[AccuracyPoint]:
    """Estimate the accuracy of every ``(config, seed, stream_seed)`` cell over ``trials`` trials.

    ``cells`` is what :func:`sweep_cells` builds. Cells that share a stream
    seed, window and ratio share their pulse times (see
    :func:`_trial_batches`). Cells run on the calling thread, and results are
    reproducible bit for bit.
    """
    n_correct, n_ties = [0] * len(cells), [0] * len(cells)
    for i, batch in _trial_batches(cells, trials):
        n_correct[i] += int(np.count_nonzero(batch.correct))
        n_ties[i] += int(np.count_nonzero(batch.tie))
    return [
        AccuracyPoint(
            float(cfg.duration_s), cfg.n_a, cfg.n_b, cfg.n_devices, float(cfg.params.i_cc_uA),
            float(cfg.p_on), correct / trials, *wilson_interval(correct, trials), trials, ties,
        )
        for (cfg, _, _), correct, ties in zip(cells, n_correct, n_ties)
    ]


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


def trace_cells(n: int, repeats: int) -> int:
    """``repeats * n``, the cells of one trace series' chain; it must fit ``rng.binomial``'s int64."""
    check_trial_devices(n)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if n * repeats > 2**63 - 1:
        raise ValueError(f"repeats * n_devices = {n * repeats} cells is more than 2**63 - 1")
    return n * repeats


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
    """Average ``repeats`` independent ``n``-cell synapse traces pointwise.

    Samples run at ``sample_rate_hz`` from 0 through the stream window plus
    ``tail_s`` (the tail shows the relaxation after the last pulse), on the
    grid :func:`sample_count` sizes. The repeats share the stream and only
    their mean is reported, so their cells are one pool: one
    :func:`memdecide.synapse.trace_counts` chain from ``spawn_rng(master_seed, "chain")``.
    """
    m = trace_cells(n, repeats)
    check_p_on(p_on)
    n_samples = sample_count(stream.duration_s, sample_rate_hz, tail_s)
    sample_times = np.arange(n_samples, dtype=float) / sample_rate_hz
    mean = trace_counts(m, stream.times, p_on, params.retention, sample_times,
                        spawn_rng(master_seed, "chain")) / repeats
    return Trace(
        times=sample_times,
        count_on=mean,
        current_uA=params.current_uA(mean, n),
    )
