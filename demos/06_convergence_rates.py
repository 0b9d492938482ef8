"""Rate experiments: the empirical Stieltjes transform approaches the
Marchenko-Pastur transform as n grows along a beta_n = n^(-1/2) schedule,
and the right-projection energy obeys its beta log(n) envelope."""

import math

import numpy as np

from spikedwide import ModelConfig, fit_rate
from spikedwide.montecarlo import (
    projection_energy_experiment,
    stieltjes_deviation_experiment,
)

TRIALS = 10
print("normalized sup-deviation of s_n from the MP transform on a probe disc")
print("(value * sqrt(beta); derivative * beta)\n")
print("   n      m      value dev   derivative dev")
rows = []
for n in (100, 200, 400):
    m = math.ceil(n ** 1.5)
    config = ModelConfig(n=n, m=m, r=0, seed=31)
    devs = [stieltjes_deviation_experiment(config, t, u_offset=1.0)
            for t in range(TRIALS)]
    dev = np.median([d.value for d in devs])
    ddev = np.median([d.derivative for d in devs])
    rows.append((n, dev))
    print(f"  {n:4d}  {m:5d}   {dev:.3e}    {ddev:.3e}")
print(f"\nlog-log slope of the value deviation: {fit_rate(rows):.3f} (< 0)")

print("\nprojection of an independent unit vector onto the noise row space:")
for n in (100, 400):
    config = ModelConfig(n=n, m=100 * n, r=0, seed=31)
    res = [projection_energy_experiment(config, t) for t in range(TRIALS)]
    mean_ratio = np.mean([r.ratio_beta for r in res])
    worst_log = max(r.ratio_beta_log for r in res)
    print(f"  n={n}: mean energy/beta = {mean_ratio:.3f} (expect ~1), "
          f"max energy/(beta log n) = {worst_log:.3f} (envelope < 3)")
