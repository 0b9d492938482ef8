"""Inference from an observed matrix: outlier detection and strength recovery.

Detection thresholds the spectrum at 1 + (2 + eta) * sqrt(beta); estimation
inverts the exact finite-beta eigenvalue map through the D-transform (not the
centered limit), so lambda -> tau -> lambda round-trips to rounding error.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _runtime, mp
from .errors import DomainError, ValidationError
from .predictions import left_cosine_limit
from .spectra import covariance_eigenvalues

__all__ = [
    "OutlierEstimate",
    "EstimationReport",
    "detect_outliers",
    "estimate_tau",
    "analyze",
]

DEFAULT_ETA = 0.5


@dataclass(frozen=True)
class OutlierEstimate:
    index: int          # 0-based position in the descending spectrum
    lambda_emp: float
    centered: float     # (lambda - 1) / sqrt(beta)
    tau_hat: float
    theta_hat: float
    cosine_hat: float
    right_scale: float  # beta^(1/4)

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class EstimationReport:
    beta: float
    edge: float
    outliers: list = field(default_factory=list)
    subcritical_count: int = 0  # 0/1 flag: 1 when the scan stopped below the threshold
    transposed: bool = False
    tie_warning: bool = False

    def to_dict(self):
        return asdict(self)


def _check_eta(eta):
    """detect_outliers' check of eta, run before any matrix is read."""
    if not eta > 0:
        raise ValidationError("eta must be positive")


def detect_outliers(eigenvalues, beta, eta=DEFAULT_ETA):
    """Positions of eigenvalues above 1 + (2 + eta) sqrt(beta), scanning from the
    top and stopping at the first non-exceedance."""
    _check_eta(eta)
    lam = np.asarray(eigenvalues, dtype=float)
    if np.any(np.diff(lam) > 0):
        raise ValidationError("eigenvalues must be sorted descending")
    threshold = 1.0 + (2.0 + eta) * math.sqrt(beta)
    out = []
    for i, value in enumerate(lam):
        if value > threshold:
            out.append(i)
        else:
            break
    return out


def estimate_tau(lambda_hat, beta):
    """(tau_hat, theta_hat) from an outlier eigenvalue: theta_hat^2 = 1 / D(lambda)."""
    _, edge = mp.bulk_edges(beta)
    if not lambda_hat > edge:
        raise DomainError(
            f"lambda={lambda_hat:.6g} not beyond the bulk edge {edge:.6g}"
        )
    theta_sq = 1.0 / mp.d_transform(lambda_hat, beta)
    theta_hat = math.sqrt(theta_sq)
    tau_hat = math.sqrt(theta_sq / math.sqrt(beta))
    return tau_hat, theta_hat


@_runtime.one_blas_thread()
def analyze(X, eta=DEFAULT_ETA):
    """Full estimation report for an observed (unscaled) matrix.

    Tall inputs are transposed internally (left/right roles swap; the report
    flags it). subcritical_count is a 0/1 stop flag, not a count: 1 when the
    scan stopped at an eigenvalue below the threshold. The Gram and its
    eigenvalues are computed on one OpenBLAS thread, as every trial's are, so
    the report does not depend on OPENBLAS_NUM_THREADS.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValidationError("X must be a matrix")
    if X.size == 0:
        raise ValidationError(f"X must have at least one row and one column, "
                              f"got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValidationError("X contains non-finite entries")
    transposed = X.shape[0] > X.shape[1]
    if transposed:
        X = X.T
    n, m = X.shape
    beta = n / m
    _, edge = mp.bulk_edges(beta)
    lam = covariance_eigenvalues(X)
    idx = detect_outliers(lam, beta, eta)
    scale = beta ** 0.25
    sqrt_beta = math.sqrt(beta)
    outliers = []
    for i in idx:
        tau_hat, theta_hat = estimate_tau(lam[i], beta)
        outliers.append(
            OutlierEstimate(
                index=i,
                lambda_emp=float(lam[i]),
                centered=(float(lam[i]) - 1.0) / sqrt_beta,
                tau_hat=tau_hat,
                theta_hat=theta_hat,
                cosine_hat=left_cosine_limit(tau_hat),
                right_scale=scale,
            )
        )
    tie = any(
        abs(a.lambda_emp - b.lambda_emp) < 1e-12
        for a, b in zip(outliers, outliers[1:])
    )
    return EstimationReport(
        beta=beta,
        edge=edge,
        outliers=outliers,
        subcritical_count=1 if len(idx) < lam.size else 0,
        transposed=transposed,
        tie_warning=tie,
    )
