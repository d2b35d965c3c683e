"""One two-alternative forced-choice trial, step by step, then many at once.

Two channels emit random pulse streams, 40 pulses against 20, into two
20-cell synapses. At the end of the window the synaptic currents are
compared; the larger one names the winning channel. Single trials are noisy;
accuracy emerges over many seeded repetitions.
"""

import numpy as np

from memdecide import (
    DeviceParams,
    RetentionDistribution,
    StreamSpec,
    SwitchingCurve,
    TwoAfcConfig,
    estimate_accuracy,
    run_trial,
)

curve = SwitchingCurve(v_median=0.6, v_spread=0.05)
cfg = TwoAfcConfig(
    n_devices=20,
    params=DeviceParams(270.0, RetentionDistribution(2.0, 0.5)),
    p_on=0.05,  # every pulse switches an OFF cell with probability 5%
    spec_a=StreamSpec(n_pulses=40, duration_s=2.0),
    spec_b=StreamSpec(n_pulses=20, duration_s=2.0),
)
print(f"pulse amplitude for 5% switching: {curve.quantile(cfg.p_on):.4f} V")

# A handful of individual trials. Channel A fires twice as often, so it is
# the ground truth; each trial reads both currents at t = 2 s and compares.
print("\nten single trials:")
for i in range(10):
    r = run_trial(cfg, np.random.default_rng(i))
    print(
        f"  trial {i}: counts {r.count1:2d} vs {r.count2:2d}, "
        f"currents {r.i1_uA:6.0f} vs {r.i2_uA:6.0f} uA -> {r.decision} "
        f"({'correct' if r.correct else 'wrong'}{', tie' if r.tie else ''})"
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
blind = TwoAfcConfig(
    n_devices=20, params=cfg.params, p_on=0.0,
    spec_a=cfg.spec_a, spec_b=cfg.spec_b,
)
chance = estimate_accuracy(blind, trials=500, master_seed=7)
print(
    f"no-evidence baseline: {chance.accuracy:.3f} "
    f"(CI [{chance.ci_low:.3f}, {chance.ci_high:.3f}], {chance.n_ties} ties)"
)
