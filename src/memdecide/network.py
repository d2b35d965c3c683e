"""Two-alternative forced-choice decision network.

Two input channels drive two equally sized synapses. Each channel emits a
random pulse stream with a fixed pulse count, every pulse switching with the
same ``p_on``; the channel with strictly more pulses is the ground-truth
answer. At the end of the trial window both
synaptic currents are read and an ideal sign comparator picks the larger one.
An exact tie is broken uniformly at random and flagged, which keeps the
no-evidence baseline at chance level.

:func:`run_trials` runs ``m`` trials of one configuration at once. The
comparator sees only the two ON counts at the end of the window, and once a
stream's pulse times are drawn the ``N`` cells of its synapse are
independent and identically distributed, so each count is exactly
``Binomial(N, pi)``, ``pi`` being one cell's chance to be ON at the end
(:func:`on_probability`). A trial therefore draws its pulse times and two
binomial counts, and its cost does not grow with ``N``. The per-cell kernel
:func:`memdecide.synapse.pulse_update` still defines the model: ``pi`` is
derived from it, traces run it, and the tests check this sampler against it
in law. A single trial is ``run_trials(cfg, 1, rng)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .device import DeviceParams, RetentionDistribution, check_p_on
from .stream import StreamSpec, random_times

__all__ = ["TwoAfcConfig", "TrialBatch", "decide", "on_probability", "run_trials"]


@dataclass(frozen=True)
class TwoAfcConfig:
    """One trial's configuration: two stream specs over a common window, pulses at ``p_on``."""

    n_devices: int
    params: DeviceParams
    p_on: float
    spec_a: StreamSpec
    spec_b: StreamSpec

    def __post_init__(self):
        # A trial allocates nothing per cell; its N only has to fit the int64
        # ``n`` of ``rng.binomial``.
        if not 1 <= self.n_devices <= 2**63 - 1:
            raise ValueError(f"n_devices must lie in [1, 2**63 - 1], got {self.n_devices}")
        check_p_on(self.p_on)
        if self.spec_a.duration_s != self.spec_b.duration_s:
            raise ValueError(
                "both streams must share one trial window: "
                f"{self.spec_a.duration_s} != {self.spec_b.duration_s}"
            )

    @property
    def duration_s(self) -> float:
        return self.spec_a.duration_s


class TrialBatch(NamedTuple):
    """Outcomes of ``m`` trials, one array entry per trial.

    ``correct`` is defined against the stream with strictly more pulses; when
    the pulse counts are equal either choice counts as correct (the task has
    no ground truth at ratio 1).
    """

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


def on_probability(
    times: np.ndarray, duration_s: float, p_on: float, retention: RetentionDistribution
) -> np.ndarray:
    """Chance that one cell is ON at ``duration_s``, per row of a sorted ``(m, K)`` pulse-time matrix.

    With ``S`` the retention survival, a cell is lit by pulse ``j`` (ON
    before it and refreshed, or OFF and switched) with probability
    ``q_1 = p_on``, ``q_j = p_on + (1 - p_on) * q_{j-1} * S(t_j - t_{j-1})``,
    and is ON at the end with ``pi = q_K * S(duration_s - t_K)``; ``pi = 0``
    for a stream without pulses. This is the law of one cell under
    :func:`memdecide.synapse.pulse_update`.
    """
    m, k = times.shape
    if not k:
        return np.zeros(m)
    # S of each gap between pulses, then of the gap from the last pulse to the read.
    survive = retention.survival(np.diff(times, axis=1, append=duration_s))
    q = np.full(m, float(p_on))
    for s in survive[:, :-1].T:
        q = p_on + (1.0 - p_on) * q * s
    return q * survive[:, -1]


def run_trials(cfg: TwoAfcConfig, m: int, rng: np.random.Generator) -> TrialBatch:
    """Run ``m`` independent trials of ``cfg`` from one generator.

    Draw order: A's pulse times as an ``(m, n_a)`` matrix, then B's as
    ``(m, n_b)``; then A's end-of-window ON counts, ``binomial(N, pi_A)``
    with one :func:`on_probability` per trial, then B's the same way; last,
    one tie uniform per trial. Both synapses are read at exactly
    ``t = duration_s``.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    params = cfg.params
    stream_times = (random_times(cfg.spec_a, m, rng), random_times(cfg.spec_b, m, rng))
    count1, count2 = [
        rng.binomial(cfg.n_devices, on_probability(times, cfg.duration_s, cfg.p_on, params.retention))
        for times in stream_times
    ]
    i1, i2 = params.current_uA(count1, cfg.n_devices), params.current_uA(count2, cfg.n_devices)
    choose_a, tie = decide(i1, i2, rng)

    n_a, n_b = cfg.spec_a.n_pulses, cfg.spec_b.n_pulses
    correct = np.full(m, True) if n_a == n_b else choose_a == (n_a > n_b)
    return TrialBatch(choose_a, correct, i1, i2, count1, count2, tie)
