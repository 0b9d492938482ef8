"""Certify outlier eigenvalues by the argument principle.

The determinant of the empirical 2r x 2r master matrix vanishes exactly at
the non-noise eigenvalues of the spiked covariance. Around each predicted
location we walk a circle of radius n^(-0.2) sqrt(beta) and count roots by
accumulated phase; winding number 1 certifies the outlier.
"""

import numpy as np

from spikedwide import ModelConfig, certify_outliers, sample_model
from spikedwide.master import EmpiricalMasterEvaluator

config = ModelConfig(n=250, m=25000, r=2, taus=(2.5, 1.5), seed=11,
                     signal_family="orthonormal")
sample = sample_model(config)

print(f"n={sample.n}, m={sample.m}, beta={sample.beta}")
for cert in certify_outliers(sample):
    print(f"spike {cert.spike_index}: contour at {cert.center:.4f} "
          f"(radius {cert.radius:.4f}) -> winding {cert.winding}, "
          f"certified={cert.certified}; matched eigenvalue {cert.lambda_emp:.4f}, "
          f"|gap|/sqrt(beta) = {cert.centered_gap:.4f}")

# the determinant really does change sign across each certified root
evaluator = EmpiricalMasterEvaluator(sample)
lam = certify_outliers(sample)[0].lambda_emp
eps = 1e-4
left, right = evaluator.det(lam - eps).real, evaluator.det(lam + eps).real
print(f"\ndet around the top root: {left:+.3e} | {right:+.3e} "
      f"(sign change: {np.sign(left) != np.sign(right)})")
