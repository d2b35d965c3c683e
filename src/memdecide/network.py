"""Two-alternative forced-choice decision network.

Two input channels drive two equally sized synapses. Over one trial window,
channel A emits ``n_a`` and channel B ``n_b`` randomly placed pulses, every
pulse switching with the same ``p_on``; the channel with strictly more
pulses is the ground-truth answer. At the end of the window an ideal sign
comparator picks the synapse with the larger current. Both synapses have the
same ``N`` cells and currents, and a synapse's current ``N*i_off + c*(i_cc -
i_off)`` rises strictly with its ON count ``c``, so the comparator decides on
the two ON counts: in integers the comparison stays exact at any ``N``,
where float64 currents of adjacent counts coincide from ``N`` near ``2**55``.
An exact tie is broken by a fair coin and flagged, which keeps the
no-evidence baseline at chance level.

Once a stream's pulse times are drawn the ``N`` cells of its synapse are
independent and identically distributed, so each count is exactly
``Binomial(N, pi)``, ``pi`` being one cell's chance to be ON at the end. A
trial therefore draws its pulse times, two binomial counts and a tie coin,
and its cost does not grow with ``N``. Three kernels make a trial:
:func:`gap_survival` (the retention survival of each gap, which depends on
the streams and the retention law), :func:`on_probability` (the recurrence
that turns it into ``pi`` at one ``p_on``) and :func:`read_out` (the counts,
the coin and the choice).
This module holds the trial's types and kernels and composes none of them:
:mod:`memdecide.experiment` does, in one place and under one random-number
layout, for sweeps, accuracy estimates and single trials alike.
The per-cell kernel :func:`memdecide.synapse.pulse_update` still defines the
model: ``pi`` is derived from it, and the tests check this sampler and the
trace chain against it in law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .device import DeviceParams, RetentionDistribution, check_p_on
from .stream import check_duration, check_n_pulses

__all__ = [
    "TwoAfcConfig", "check_trial_devices", "TrialBatch", "decide", "gap_survival", "on_probability",
    "read_out",
]


def check_trial_devices(n_devices: int) -> None:
    """Reject a synapse size outside ``[1, 2**63 - 1]``.

    Neither a trial nor a trace allocates anything per cell; N only has to
    fit the int64 ``n`` of ``rng.binomial``.
    """
    if not 1 <= n_devices <= 2**63 - 1:
        raise ValueError(f"n_devices must lie in [1, 2**63 - 1], got {n_devices}")


@dataclass(frozen=True)
class TwoAfcConfig:
    """One trial: ``n_a`` against ``n_b`` pulses at ``p_on`` over one window, N cells per synapse."""

    n_devices: int
    params: DeviceParams
    p_on: float
    n_a: int
    n_b: int
    duration_s: float

    def __post_init__(self):
        check_n_pulses(self.n_a)
        check_n_pulses(self.n_b)
        check_duration(self.duration_s)
        check_trial_devices(self.n_devices)
        check_p_on(self.p_on)


class TrialBatch(NamedTuple):
    """Outcomes of ``m`` trials, one array entry per trial.

    ``correct`` is defined against the stream with strictly more pulses; when
    the pulse counts are equal either choice counts as correct (the task has
    no ground truth at ratio 1). A trial's currents follow from its counts
    through :meth:`memdecide.device.DeviceParams.current_uA`.
    """

    choose_a: np.ndarray
    correct: np.ndarray
    count1: np.ndarray
    count2: np.ndarray
    tie: np.ndarray


def decide(count1, count2, coin) -> tuple[np.ndarray, np.ndarray]:
    """Sign comparator on ON-count pairs; returns ``(choose_a, tie)`` arrays.

    The counts are compared as given, integers exactly. An exact tie goes to
    A where its ``coin`` is 1 and to B where it is 0. Every pair has a coin,
    tie or not, so the draws never depend on the outcome.
    """
    count1, count2 = np.asarray(count1), np.asarray(count2)
    tie = count1 == count2
    return np.where(tie, np.asarray(coin) == 1, count1 > count2), tie


def gap_survival(times: np.ndarray, duration_s: float, retention: RetentionDistribution) -> np.ndarray:
    """Retention survival of every gap of a sorted ``(m, K)`` pulse-time matrix, as a ``(K, m)`` array.

    Row ``j < K - 1`` holds ``S(t_{j+1} - t_j)`` and the last row ``S(duration_s
    - t_K)``, for every stream at once: the transposed gap matrix, so that
    each pulse's gaps are one contiguous row for :func:`on_probability`. It
    depends on the streams and the retention law only, so streams shared by
    several ``p_on`` values are evaluated once.
    """
    m, k = times.shape
    survive = np.empty((k, m))
    if k:
        np.subtract(times.T[1:], times.T[:-1], out=survive[:-1])
        np.subtract(duration_s, times[:, -1], out=survive[-1])
        retention.survival(survive, out=survive)
    return survive


def on_probability(survive: np.ndarray, p_on: float) -> np.ndarray:
    """Chance that one cell is ON at the end of the window, per stream, from :func:`gap_survival`.

    With ``S`` the retention survival, a cell is lit by pulse ``j`` (ON
    before it and refreshed, or OFF and switched) with probability
    ``q_1 = p_on``, ``q_j = p_on + (1 - p_on) * q_{j-1} * S(t_j - t_{j-1})``,
    and is ON at the end with ``pi = q_K * S(duration_s - t_K)``; ``pi = 0``
    for a stream without pulses. This is the law of one cell under
    :func:`memdecide.synapse.pulse_update`. The recurrence runs in place, one
    contiguous row of ``survive`` per pulse (which it leaves as it is), with
    the roundings of the formula as written: ``(1 - p_on) * q``, then ``*
    S``, then ``p_on +``.
    """
    k, m = survive.shape
    if not k:
        return np.zeros(m)
    q = np.full(m, float(p_on))
    for s in survive[:-1]:
        q *= 1.0 - p_on
        q *= s
        q += p_on
    q *= survive[-1]
    return q


def read_out(cfg: TwoAfcConfig, pi_a: np.ndarray, pi_b: np.ndarray, rng: np.random.Generator) -> TrialBatch:
    """The end of trials whose synapses are ON with ``pi_a`` and ``pi_b`` per cell, one entry per trial.

    One draw, ``binomial((N, N, 1), p)`` on the ``(m, 3)`` stack ``p`` of
    ``(pi_a, pi_b, 0.5)``, gives each trial in turn A's ON count, B's and the
    tie coin of :func:`decide`: no trial's draws depend on the trials after it.
    """
    n, p = cfg.n_devices, np.stack((pi_a, pi_b, np.full(len(pi_a), 0.5)), axis=1)
    count1, count2, coin = rng.binomial((n, n, 1), p).T
    choose_a, tie = decide(count1, count2, coin)
    correct = np.full(tie.shape, True) if cfg.n_a == cfg.n_b else choose_a == (cfg.n_a > cfg.n_b)
    return TrialBatch(choose_a, correct, count1, count2, tie)
