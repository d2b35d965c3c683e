"""A multi-cell synapse integrating a pulse train.

Fifty cells share their electrodes; each pulse switches OFF cells ON with the
per-pulse probability, and the summed current grows with the number of ON
cells. Two knobs shape the response: the switching probability (how fast the
count climbs) and the retention time (how fast it forgets). This script
prints compact text traces for both knobs.
"""

import numpy as np

from memdecide import (
    DeviceParams,
    RetentionDistribution,
    generate_periodic,
    run_trace_experiment,
)

stream = generate_periodic(n_pulses=50, rate_hz=10.0)  # 5 s of drive


def sparkline(values, lo=0.0, hi=50.0):
    blocks = " .:-=+*#%@"
    scaled = np.clip((np.asarray(values) - lo) / (hi - lo), 0.0, 1.0)
    return "".join(blocks[int(round(s * (len(blocks) - 1)))] for s in scaled)


# --- knob 1: switching probability, long retention -------------------------
# Low probabilities integrate almost linearly over the 50 pulses; at 10% the
# synapse saturates (all cells ON) well before the train ends.
print("mean ON count during the train (long retention), one symbol per 250 ms:")
params = DeviceParams(300.0, RetentionDistribution(median_s=1e3, sigma_log=0.5))
for p_on in (0.01, 0.02, 0.05, 0.10):
    trace = run_trace_experiment(
        n=50, stream=stream, p_on=p_on, params=params,
        sample_rate_hz=4.0, repeats=200, master_seed=42,
    )
    print(f"  p={p_on:4.0%} |{sparkline(trace.count_on)}| final {trace.count_on[-1]:.1f}")

# --- knob 2: retention, fixed 10% probability -------------------------------
# Short retention caps the count: cells die between pulses. The 2 s tail after
# the train shows the relaxation back to zero.
print("\nretention effect at p=10%, including a 2 s tail after the train:")
for median in (0.02, 0.2, 2.0):
    params = DeviceParams(300.0, RetentionDistribution(median, sigma_log=0.5))
    trace = run_trace_experiment(
        n=50, stream=stream, p_on=0.10, params=params,
        sample_rate_hz=4.0, repeats=200, master_seed=43, tail_s=2.0,
    )
    during = trace.count_on[trace.times <= 5.0].mean()
    print(f"  tau={median:5.2f} s |{sparkline(trace.count_on)}| mean during drive {during:.1f}")

print("\nThe same traces are available as CSV/SVG through the command line:")
print("  memdecide trace --config configs/fig2b.cfg --svg")
print("  memdecide trace --config configs/fig2c.cfg --svg")
