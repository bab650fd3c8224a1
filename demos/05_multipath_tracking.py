#!/usr/bin/env python3
"""Clustered multipath tracking bounds, Monte-Carlo averaged.

Channels are drawn from a simplified clustered model (1..7 clusters,
uniform azimuths with a separation floor, exponentially decaying mean
cluster powers) and azimuth estimates are perturbed by up to Delta.
Both strategy bounds are averaged over the realizations; trials are
seeded independently so runs are reproducible.

Saves multipath_bounds.png when matplotlib is importable.
"""

import time

import numpy as np

from pilotspace import AC_STRATEGY, PROPOSED_STRATEGY, ExperimentConfig, run_multipath

config = ExperimentConfig(n_trials=100)
start = time.monotonic()
table, diagnostics = run_multipath(config)
print(f"{config.n_trials} trials in {time.monotonic() - start:.2f}s "
      f"(redraws: {diagnostics['redraws']})")

psnr_db = table.values(AC_STRATEGY, 0.0)[0]
print(f"{'pSNR dB':>8}", end="")
for delta in config.delta_deg:
    print(f" | AC d={delta:<4} Prop d={delta:<4}", end="")
print()
for i, db in enumerate(psnr_db):
    print(f"{db:8.0f}", end="")
    for delta in config.delta_deg:
        ac = table.values(AC_STRATEGY, delta)[1][i]
        pr = table.values(PROPOSED_STRATEGY, delta)[1][i]
        print(f" | {10*np.log10(ac):8.2f} {10*np.log10(pr):9.2f}", end="")
    print()

for delta in (1.0, 5.0):
    grid, ac = table.values(AC_STRATEGY, delta)
    _, pr = table.values(PROPOSED_STRATEGY, delta)
    crossing = grid[pr < ac]
    if crossing.size:
        print(f"delta={delta}: proposed beats angle-constrained from {crossing[0]:.0f} dB on")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the figure")
else:
    fig, ax = plt.subplots(figsize=(7, 5))
    colors = {0.0: "tab:green", 1.0: "tab:orange", 5.0: "tab:red"}
    for delta in config.delta_deg:
        grid, ac = table.values(AC_STRATEGY, delta)
        _, pr = table.values(PROPOSED_STRATEGY, delta)
        c = colors.get(delta, None)
        ax.plot(grid, 10 * np.log10(ac), "--", color=c, label=f"angle-constrained, d={delta}")
        ax.plot(grid, 10 * np.log10(pr), "-", color=c, label=f"proposed, d={delta}")
    ax.set_xlabel("pSNR (dB)")
    ax.set_ylabel("mean relative MSE lower bound (dB)")
    ax.set_title(f"Multipath tracking bounds ({config.n_trials} clustered channels)")
    ax.grid(alpha=0.3)
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("multipath_bounds.png", dpi=150)
    print("saved multipath_bounds.png")
