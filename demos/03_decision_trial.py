"""One two-alternative forced-choice trial, step by step, then many at once.

Two channels emit random pulse streams, 40 pulses against 20 over one 2 s
window, into two 20-cell synapses. At the end of the window the larger
synaptic current names the winning channel. Both synapses have the same cells
and currents, so that is the synapse with more cells ON: the comparator reads
the two ON counts. Single trials are noisy; accuracy emerges over many seeded
repetitions.
"""

import dataclasses

from memdecide import (
    DeviceParams,
    RetentionDistribution,
    SwitchingCurve,
    TwoAfcConfig,
    estimate_accuracy,
    run_trials,
)

# Every pulse has the same amplitude, so it switches an OFF cell with one
# probability, which the switching curve gives: about 5% at 0.518 V.
curve = SwitchingCurve(v_median=0.6, v_spread=0.05)
v_pulse = 0.518
cfg = TwoAfcConfig(
    n_devices=20,
    params=DeviceParams(270.0, RetentionDistribution(2.0, 0.5)),
    p_on=float(curve.probability(v_pulse)),
    n_a=40,
    n_b=20,
    duration_s=2.0,
)
print(f"a {v_pulse} V pulse switches an OFF cell with probability {cfg.p_on:.4f}")

# A handful of individual trials. Channel A fires twice as often, so it is
# the ground truth; each trial reads both synapses at t = 2 s and compares.
print("\nten single trials:")
r = run_trials(cfg, 10, 7)  # one entry per trial in every field
for i in range(10):
    i1, i2 = (cfg.params.current_uA(count, cfg.n_devices) for count in (r.count1[i], r.count2[i]))
    print(
        f"  trial {i}: counts {r.count1[i]:2d} vs {r.count2[i]:2d}, "
        f"currents {i1:6.0f} vs {i2:6.0f} uA -> {'A' if r.choose_a[i] else 'B'} "
        f"({'correct' if r.correct[i] else 'wrong'}{', tie' if r.tie[i] else ''})"
    )

# Accuracy with a Wilson 95% interval over 1000 independent trials.
point = estimate_accuracy(cfg, trials=1000, master_seed=7)
print(
    f"\naccuracy over {point.n_trials} trials: {point.accuracy:.3f} "
    f"(95% CI [{point.ci_low:.3f}, {point.ci_high:.3f}], {point.n_ties} ties)"
)

# Take the evidence away and the system falls back to guessing: at p_on = 0
# (a pulse amplitude far below threshold) nothing switches and every trial is
# a tie.
blind = dataclasses.replace(cfg, p_on=0.0)
chance = estimate_accuracy(blind, trials=500, master_seed=7)
print(
    f"no-evidence baseline: {chance.accuracy:.3f} "
    f"(CI [{chance.ci_low:.3f}, {chance.ci_high:.3f}], {chance.n_ties} ties)"
)
