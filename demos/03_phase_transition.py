"""Sweep the spike strength through the transition at tau = 1.

Left singular vectors lock onto the signal only above tau = 1, approaching
the cosine sqrt(1 - tau^-4); right singular vectors stay decorrelated at the
beta^(1/4) scale throughout.
"""

import numpy as np

from spikedwide import ModelConfig, left_cosine_limit, run_experiments

N, BETA, TRIALS = 120, 0.01, 12
m = round(N / BETA)
print(f"n={N}, m={m}, {TRIALS} trials per tau; right-overlap scale "
      f"beta^(1/4) = {BETA ** 0.25:.3f}\n")
print("  tau   mean|<u~,u>|   cosine   mean|<v~,v>|   mean(lam1-1)/sqrt(beta)")

TAUS = (0.6, 0.9, 1.1, 1.4, 1.8, 2.4)
# The taus share each trial's draw: one matrix per trial serves them all.
reports = run_experiments([ModelConfig(n=N, m=m, r=1, taus=(tau,), seed=101)
                           for tau in TAUS], trials=TRIALS)
for tau, report in zip(TAUS, reports):
    sp = report.per_spike[0]
    centered = (sp["lambda_emp"].mean - 1) / np.sqrt(BETA)
    print(f"  {tau:.1f}   {sp['u_overlap'].mean:10.4f}   {left_cosine_limit(tau):6.4f}"
          f"   {sp['v_overlap'].mean:10.4f}   {centered:10.4f}")

print("\n(for tau <= 1 the left overlap tends to 0, but near the critical point"
      "\n it decays very slowly with n, so small-n values sit well above 0)")
