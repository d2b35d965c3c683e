"""Calibration round trip: synthesize measurements, fit, and write a deck.

Measured device data enters as two CSVs: binary switching outcomes per pulse
amplitude, and retention times per compliance current. This script generates
synthetic versions of both from known ground truth, fits them back, and saves
the resulting parameter deck. The files it writes under out/fixtures/ are the
inputs expected by configs/calibrate_example.cfg.
"""

from pathlib import Path

import numpy as np

from memdecide import (
    ParamDeck,
    RetentionDistribution,
    RetentionRecord,
    SwitchingCurve,
    SwitchingRecord,
    fit_retention,
    fit_switching_curve,
    interpolate_retention,
    read_deck,
    sweep,
    sweep_cells,
    write_deck,
)

rng = np.random.default_rng(99)
out = Path("out/fixtures")
out.mkdir(parents=True, exist_ok=True)

# Ground truth to recover: the deck's default switching curve plus a
# three-point retention table spanning milliseconds to a second.
true_curve = SwitchingCurve(v_median=0.6, v_spread=0.05)
true_table = [(10.0, 0.01), (100.0, 0.1), (300.0, 1.0)]

# --- synthetic pulsed characterization --------------------------------------
amplitudes = rng.uniform(0.4, 0.8, 5000)
switched = rng.random(5000) < true_curve.probability(amplitudes)
switching_csv = out / "switching.csv"
switching_csv.write_text(
    "v_pulse_V,switched\n"
    + "\n".join(f"{float(v)!r},{int(s)}" for v, s in zip(amplitudes, switched))
    + "\n"
)

rows = []
for i_cc, median in true_table:
    for s in RetentionDistribution(median, sigma_log=0.5).sample(rng, 400):
        rows.append(f"{i_cc!r},{float(s)!r}")
retention_csv = out / "retention.csv"
retention_csv.write_text("i_cc_uA,retention_s\n" + "\n".join(rows) + "\n")
print(f"wrote {switching_csv} and {retention_csv}")

# --- fit both models back ----------------------------------------------------
curve, diag = fit_switching_curve(
    [SwitchingRecord(float(v), bool(s)) for v, s in zip(amplitudes, switched)]
)
print(
    f"\nswitching fit: median {curve.v_median:.4f} V (true 0.6), "
    f"spread {curve.v_spread:.4f} V (true 0.05), "
    f"converged={diag.converged}"
)

table, stderrs = fit_retention(
    [RetentionRecord(float(r.split(",")[0]), float(r.split(",")[1])) for r in rows]
)
print("retention fits per compliance current:")
for (i_cc, dist), (se_median, se_sigma), (_, true_median) in zip(table, stderrs, true_table):
    print(f"   {i_cc:5.0f} uA: median {dist.median_s:.4f} +- {se_median:.4f} s (true {true_median}), "
          f"sigma_log {dist.sigma_log:.3f} +- {se_sigma:.3f} (true 0.5)")

# --- assemble, save, reload ---------------------------------------------------
deck = ParamDeck(switching=curve, retention_table=table,
                 provenance="synthetic round-trip demo")
deck_path = out / "deck.json"
write_deck(deck, deck_path)
reloaded = read_deck(deck_path)
assert reloaded == deck
print(f"\ndeck saved to {deck_path} and reloaded identically")

# The deck interpolates between measured currents on a log-log axis.
mid = interpolate_retention(reloaded.retention_table, 170.0)
print(f"interpolated retention at 170 uA: median {mid.median_s:.3f} s")

# The fitted deck drives a sweep directly: each cell takes its retention from
# the deck at the cell's compliance current.
cells = sweep_cells(durations_s=[2.0], ratios=[(40, 20)], device_counts=[20],
                    i_cc_values_uA=[10.0, 300.0], p_on_values=[0.05],
                    master_seed=5, deck=reloaded)
print("\naccuracy with the fitted deck, 40-vs-20 pulses in 2 s, 20 cells:")
for point in sweep(cells, trials=300):
    print(f"   {point.i_cc_uA:5.0f} uA: {point.accuracy:.3f}")
print("\nThe same pipeline end to end through the command line:")
print("  memdecide calibrate --config configs/calibrate_example.cfg")
