"""Limiting values for spiked eigenvalues and singular-vector overlaps.

Spike strength is parametrized on the refined scale theta = tau * beta^(1/4);
the detectability transition sits at tau = 1. Eigenvalue displacements are
reported both in absolute terms and centered as (lambda - 1) / sqrt(beta).
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import mp
from .errors import DomainError, ValidationError

__all__ = [
    "TheoryPrediction",
    "above_threshold_count",
    "centered_eigenvalue_limit",
    "spike_eigenvalue_location",
    "left_cosine_limit",
    "proportional_reference",
    "predict",
]

#: Limit of (lambda - 1) / sqrt(beta) for bulk (non-outlier) top eigenvalues.
BULK_CENTERED_LIMIT = 2.0


@dataclass(frozen=True)
class TheoryPrediction:
    """Per-spike limiting values; subcritical spikes carry bulk values."""

    tau: float
    beta: float
    above_threshold: bool
    lambda_bar: float
    centered_limit: float
    cosine_left: float
    right_overlap_scale: float
    bulk_limit_centered: float = BULK_CENTERED_LIMIT

    def to_dict(self):
        return asdict(self)


def _check_taus(taus):
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1:
        raise ValidationError("taus must be a one-dimensional sequence")
    if taus.size and not np.all(np.isfinite(taus)):
        raise ValidationError("taus must be finite")
    if np.any(np.diff(taus) >= 0):
        raise ValidationError("taus must be strictly decreasing")
    return taus


def above_threshold_count(taus):
    """Number of spikes with tau strictly above the transition point 1."""
    taus = _check_taus(taus)
    return int(np.sum(taus > 1.0))


def centered_eigenvalue_limit(tau):
    """Limit of (lambda_1 - 1)/sqrt(beta): tau^2 + tau^-2 above threshold, else 2.

    Subcritical spikes are absorbed by the bulk, whose top eigenvalue has the
    same centered limit 2; the corresponding flag lives on TheoryPrediction.
    """
    if tau > 1.0:
        return tau * tau + 1.0 / (tau * tau)
    return BULK_CENTERED_LIMIT


def spike_eigenvalue_location(theta, beta):
    """Limiting outlier eigenvalue (1 + theta^2)(beta + theta^2) / theta^2.

    Requires theta^2 >= sqrt(beta) (a detectable spike; at equality the value
    reduces to the bulk edge); coincides with d_transform_inverse(theta^-2, beta).
    """
    t2 = theta * theta
    if t2 < math.sqrt(beta):
        raise DomainError(
            f"theta^2={t2:.6g} below the detection threshold sqrt(beta)={math.sqrt(beta):.6g}"
        )
    return (1.0 + t2) * (beta + t2) / t2


def left_cosine_limit(tau):
    """Limiting overlap |<left singular vector, left signal vector>|: sqrt(1 - tau^-4)."""
    if tau > 1.0:
        return math.sqrt(1.0 - tau ** -4)
    return 0.0


def proportional_reference(theta, beta):
    """Fixed-beta reference limits (eigenvalue, left overlap^2, right overlap^2).

    For theta > beta^(1/4) returns the supercritical triple; otherwise the bulk
    triple ((1 + sqrt(beta))^2, 0, 0). Total on purpose so threshold sweeps work.
    """
    _, edge = mp.bulk_edges(beta)
    t2 = theta * theta
    if not theta > beta ** 0.25:
        return edge, 0.0, 0.0
    lam = spike_eigenvalue_location(theta, beta)
    u_sq = 1.0 - beta * (1.0 + t2) / (t2 * (t2 + beta))
    v_sq = 1.0 - (beta + t2) / (t2 * (t2 + 1.0))
    return lam, u_sq, v_sq


def predict(taus, beta):
    """One TheoryPrediction per spike, in the given (decreasing) tau order."""
    taus = _check_taus(taus)
    _, edge = mp.bulk_edges(beta)
    scale = beta ** 0.25
    out = []
    for tau in taus:
        above = tau > 1.0
        theta = tau * scale
        lam = spike_eigenvalue_location(theta, beta) if above else edge
        out.append(
            TheoryPrediction(
                tau=float(tau),
                beta=float(beta),
                above_threshold=bool(above),
                lambda_bar=lam,
                centered_limit=centered_eigenvalue_limit(tau),
                cosine_left=left_cosine_limit(tau),
                right_overlap_scale=scale,
            )
        )
    return out
