"""Monte Carlo sweeps: how accuracy depends on the task and device knobs.

A sweep evaluates the decision task over a Cartesian grid (window length,
stream ratio, synapse size, compliance current, switching probability) with
seeded, order-independent draws per cell; cells of one window and ratio share
their pulse streams. This is a desk-scale tour;
the bundled configs under configs/ run the full-resolution versions.
"""

from memdecide import sweep, sweep_cells

# Window length x compliance current: small currents mean short retention, so
# long windows collapse to chance while 270 uA (0.8 s retention) holds up.
durations = [0.5, 2.0, 20.0]
currents = [10.0, 100.0, 270.0]
points = sweep(sweep_cells(
    durations_s=durations,
    ratios=[(40, 20)],
    device_counts=[20],
    i_cc_values_uA=currents,
    p_on_values=[0.05],
    master_seed=11,
), trials=300)
print("accuracy, 40-vs-20 streams, 20 cells (rows: window; cols: I_cc):")
print("   window " + "".join(f"  {i:6.0f}uA" for i in currents))
for duration in durations:
    row = [p for p in points if p.duration_s == duration]
    cells = "".join(f"   {p.accuracy:6.3f}" for p in row)
    print(f"   {duration:5.1f} s {cells}")

# Synapse size: around 20 cells the 40/20 task is essentially solved.
points = sweep(sweep_cells(
    durations_s=[2.0],
    ratios=[(40, 20)],
    device_counts=[3, 5, 10, 20, 50],
    i_cc_values_uA=[270.0],
    p_on_values=[0.05],
    master_seed=12,
), trials=300)
print("\naccuracy vs. synapse size (2 s window, 270 uA):")
for p in points:
    bar = "#" * int(round(40 * p.accuracy))
    print(f"   N={p.n_devices:3d}  {p.accuracy:5.3f} |{bar}")

print("\nFull-resolution sweeps (CSV + SVG) via the command line:")
print("  memdecide sweep --config configs/fig3e.cfg --svg")
