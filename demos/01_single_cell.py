"""A single volatile cell: probabilistic switching and spontaneous relaxation.

The cell is binary. A voltage pulse turns it ON with a probability ``p_on``
set by the pulse amplitude; once ON it carries the compliance current until its filament
spontaneously dissolves at a random retention time. Run this script to watch
one cell go through that lifecycle.
"""

import numpy as np

from memdecide import DeviceParams, RetentionDistribution, SwitchingCurve
from memdecide.synapse import trace_counts

rng = np.random.default_rng(1)

# The switching curve: a 0.6 V pulse switches with probability 0.5, and the
# transition from "never" to "always" is about 0.05 V wide.
curve = SwitchingCurve(v_median=0.6, v_spread=0.05)
print("switching probability vs. pulse amplitude:")
for v in (0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75):
    print(f"  {v:.2f} V -> P(switch) = {float(curve.probability(v)):.4f}")

# Retention is lognormal; the median scales with the compliance current. Here
# one second, with a half-decade of spread.
retention = RetentionDistribution(median_s=1.0, sigma_log=0.5)
params = DeviceParams(i_cc_uA=300.0, retention=retention)
draws = retention.median_s * np.exp(retention.sigma_log * rng.standard_normal(5))
print("\nfive retention times (s):", " ".join(f"{d:.2f}" for d in draws))

# Each pulse switches an OFF cell with the probability the curve gives for its
# amplitude, and gives a lit cell a fresh retention time. trace_counts reads
# the ON count of a pool of fresh cells at sorted times; with a pool of one it
# is this cell's own process, 1 while ON and 0 while OFF, and a read at a pulse
# time sees that pulse. Fire ten pulses at the half-switching amplitude and
# read the cell at each one, then after the train.
v_pulse = 0.6
p_on = float(curve.probability(v_pulse))
pulse_times = 0.1 * np.arange(10)
after = np.array([1.0, 1.5, 2.0, 3.0, 5.0])
counts = trace_counts(1, pulse_times, p_on, retention, np.concatenate((pulse_times, after)), rng)
print(f"\npulse train at {v_pulse:.1f} V (p_on = {p_on}), one pulse per 100 ms:")
for t, count in zip(pulse_times, counts):
    print(f"  t={t:.1f} s: {'ON' if count else 'off'}, "
          f"read current {params.current_uA(count, 1):.0f} uA")

# After the train stops the filament dissolves on its own.
print("\nafter the train:")
for t, count in zip(after, counts[pulse_times.size:]):
    print(f"  t={t:.1f} s: {'still ON' if count else 'relaxed OFF'}")
