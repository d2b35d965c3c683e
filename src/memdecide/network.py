"""Two-alternative forced-choice decision network.

Two input channels drive two equally sized synapses. Each channel emits a
random pulse stream with a fixed pulse count, every pulse switching with the
same ``p_on``; the channel with strictly more pulses is the ground-truth
answer. At the end of the trial window both
synaptic currents are read and an ideal sign comparator picks the larger one.
An exact tie is broken uniformly at random and flagged, which keeps the
no-evidence baseline at chance level.

:func:`run_trials` runs ``m`` trials of one configuration at once: the two
synapses of all ``m`` trials are two ``(m, N)`` expiry arrays, each updated
one pulse column at a time by :func:`memdecide.synapse.pulse_update`.
:func:`run_trial` is its ``m=1`` view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .device import DeviceParams, check_p_on
from .stream import StreamSpec, random_times
from .synapse import pulse_update

__all__ = ["TwoAfcConfig", "TrialResult", "TrialBatch", "decide", "run_trials", "run_trial"]


@dataclass(frozen=True)
class TwoAfcConfig:
    """One trial's configuration: two stream specs over a common window, pulses at ``p_on``."""

    n_devices: int
    params: DeviceParams
    p_on: float
    spec_a: StreamSpec
    spec_b: StreamSpec

    def __post_init__(self):
        if self.n_devices < 1:
            raise ValueError(f"n_devices must be >= 1, got {self.n_devices}")
        check_p_on(self.p_on)
        if self.spec_a.duration_s != self.spec_b.duration_s:
            raise ValueError(
                "both streams must share one trial window: "
                f"{self.spec_a.duration_s} != {self.spec_b.duration_s}"
            )

    @property
    def duration_s(self) -> float:
        return self.spec_a.duration_s


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial.

    ``correct`` is defined against the stream with strictly more pulses; when
    the pulse counts are equal either choice counts as correct (the task has
    no ground truth at ratio 1).
    """

    decision: str  # "A" or "B"
    correct: bool
    i1_uA: float
    i2_uA: float
    count1: int
    count2: int
    tie: bool


class TrialBatch(NamedTuple):
    """Outcomes of ``m`` trials, one array entry per trial (see :class:`TrialResult`)."""

    choose_a: np.ndarray
    correct: np.ndarray
    i1_uA: np.ndarray
    i2_uA: np.ndarray
    count1: np.ndarray
    count2: np.ndarray
    tie: np.ndarray


def decide(i1, i2, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sign comparator on current pairs; returns ``(choose_a, tie)`` arrays.

    An exact tie goes to A when its uniform is below 0.5. One uniform is
    drawn per pair, tie or not, so the draws never depend on the outcome.
    """
    i1, i2 = np.asarray(i1, dtype=float), np.asarray(i2, dtype=float)
    u = rng.random(i1.shape)
    tie = i1 == i2
    return np.where(tie, u < 0.5, i1 > i2), tie


def run_trials(cfg: TwoAfcConfig, m: int, rng: np.random.Generator) -> TrialBatch:
    """Run ``m`` independent trials of ``cfg`` from one generator.

    Draw order: A's pulse times as an ``(m, n_a)`` matrix, then B's as
    ``(m, n_b)``; then A's pulses in time order, one column of the matrix
    per :func:`pulse_update` call on an ``(m, N)`` expiry array, then B's
    pulses the same way; last, one tie uniform per trial. Both synapses are
    read at exactly ``t = duration_s``. The synapses are independent, so
    driving A before B is the same model as a merged timeline.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    params = cfg.params
    stream_times = (random_times(cfg.spec_a, m, rng), random_times(cfg.spec_b, m, rng))
    counts = []
    for times in stream_times:
        expiry = np.full((m, cfg.n_devices), -np.inf)
        for column in times.T:
            pulse_update(expiry, column, cfg.p_on, params.retention, rng)
        counts.append(np.count_nonzero(expiry > cfg.duration_s, axis=1))
    count1, count2 = counts
    i1 = count1 * params.i_on_uA + (cfg.n_devices - count1) * params.i_off_uA
    i2 = count2 * params.i_on_uA + (cfg.n_devices - count2) * params.i_off_uA
    choose_a, tie = decide(i1, i2, rng)

    n_a, n_b = cfg.spec_a.n_pulses, cfg.spec_b.n_pulses
    correct = np.full(m, True) if n_a == n_b else choose_a == (n_a > n_b)
    return TrialBatch(choose_a, correct, i1, i2, count1, count2, tie)


def run_trial(cfg: TwoAfcConfig, rng: np.random.Generator) -> TrialResult:
    """One trial: the ``m=1`` view of :func:`run_trials`."""
    batch = run_trials(cfg, 1, rng)
    return TrialResult(
        decision="A" if batch.choose_a[0] else "B",
        correct=bool(batch.correct[0]),
        i1_uA=float(batch.i1_uA[0]),
        i2_uA=float(batch.i2_uA[0]),
        count1=int(batch.count1[0]),
        count2=int(batch.count2[0]),
        tie=bool(batch.tie[0]),
    )
