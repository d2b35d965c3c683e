"""A single volatile cell: probabilistic switching and spontaneous relaxation.

The cell is binary. A voltage pulse turns it ON with a probability ``p_on``
set by the pulse amplitude; once ON it carries the compliance current until its filament
spontaneously dissolves at a random retention time. Run this script to watch
one cell go through that lifecycle.
"""

import numpy as np

from memdecide import DeviceParams, RetentionDistribution, SwitchingCurve
from memdecide.synapse import pulse_update

rng = np.random.default_rng(1)

# The switching curve: a 0.6 V pulse switches with probability 0.5, and the
# transition from "never" to "always" is about 0.05 V wide.
curve = SwitchingCurve(v_median=0.6, v_spread=0.05)
print("switching probability vs. pulse amplitude:")
for v in (0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75):
    print(f"  {v:.2f} V -> P(switch) = {float(curve.probability(v)):.4f}")

# Retention is lognormal; the median scales with the compliance current. Here
# one second, with a half-decade of spread.
params = DeviceParams(
    i_cc_uA=300.0,
    retention=RetentionDistribution(median_s=1.0, sigma_log=0.5),
)
draws = params.retention.sample(rng, 5)
print("\nfive retention times (s):", " ".join(f"{d:.2f}" for d in draws))

# The cell's whole state is the time its filament dissolves: it is ON at t
# while that expiry is after t, and -inf means it has never switched. A
# synapse is an array of such expiries; this one has a single cell. The
# simulation takes a pulse's switching probability; the curve names the
# amplitude that realizes it. Fire ten pulses at the half-switching amplitude
# and read the cell after each one.
expiry = np.full(1, -np.inf)
p_on = 0.5
print(f"\npulse train at {curve.quantile(p_on):.1f} V (p_on = {p_on}), one pulse per 100 ms:")
for k in range(10):
    t = 0.1 * k
    pulse_update(expiry, t, p_on, params.retention, rng)
    count = int(expiry[0] > t)
    print(f"  t={t:.1f} s: {'ON' if count else 'off'}, "
          f"read current {params.current_uA(count, 1):.0f} uA")

# After the train stops the filament dissolves on its own.
print("\nafter the train:")
for t in (1.0, 1.5, 2.0, 3.0, 5.0):
    print(f"  t={t:.1f} s: {'still ON' if expiry[0] > t else 'relaxed OFF'}")
