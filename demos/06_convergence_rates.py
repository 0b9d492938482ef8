"""Rate experiments: the empirical Stieltjes transform approaches the
Marchenko-Pastur transform as n grows along a beta_n = n^(-1/2) schedule,
and the right-projection energy obeys its beta log(n) envelope."""

import math
import os

import numpy as np

from spikedwide import ModelConfig, fit_rate, run_experiment

TRIALS = 10
# Reports are bit-identical at any worker count, so use every core.
CORES = len(os.sched_getaffinity(0))
print("normalized sup-deviation of s_n from the MP transform on a probe disc")
print("(value * sqrt(beta); derivative * beta)\n")
print("   n      m      value dev   derivative dev")
rows = []
for n in (100, 200, 400):
    m = math.ceil(n ** 1.5)
    config = ModelConfig(n=n, m=m, r=0, seed=31)
    records = run_experiment(config, TRIALS, CORES, measure_stieltjes=True,
                             u_offset=1.0).records
    dev = np.median([r.stieltjes_dev for r in records])
    ddev = np.median([r.stieltjes_ddev for r in records])
    rows.append((n, dev))
    print(f"  {n:4d}  {m:5d}   {dev:.3e}    {ddev:.3e}")
print(f"\nlog-log slope of the value deviation: {fit_rate(rows):.3f} (< 0)")

print("\nprojection of an independent unit vector onto the noise row space:")
for n in (100, 400):
    config = ModelConfig(n=n, m=100 * n, r=0, seed=31)
    beta = config.n / config.m
    energies = [r.proj_energy for r in
                run_experiment(config, TRIALS, CORES, measure_projection=True).records]
    mean_ratio = np.mean([e / beta for e in energies])
    worst_log = max(e / (beta * math.log(n)) for e in energies)
    print(f"  n={n}: mean energy/beta = {mean_ratio:.3f} (expect ~1), "
          f"max energy/(beta log n) = {worst_log:.3f} (envelope < 3)")
