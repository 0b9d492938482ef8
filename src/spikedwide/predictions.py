"""Limiting values for spiked eigenvalues and singular-vector overlaps.

Spike strength is parametrized on the refined scale theta = tau * beta^(1/4);
the detectability transition sits at theta = beta^(1/4) (tau = 1), and
outlier_locations is the one place that rule is written. Eigenvalue
displacements are reported both in absolute terms and centered as
(lambda - 1) / sqrt(beta).
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import mp
from .ensemble import calibrate_signal_strengths
from .errors import DomainError

__all__ = [
    "TheoryPrediction",
    "centered_eigenvalue_limit",
    "spike_eigenvalue_location",
    "outlier_locations",
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

    Requires theta >= beta^(1/4) (a detectable spike; at equality the value
    reduces to the bulk edge); coincides with d_transform_inverse(theta^-2, beta).
    """
    if theta < beta ** 0.25:
        raise DomainError(
            f"theta={theta:.6g} below the detection threshold beta^(1/4)={beta ** 0.25:.6g}"
        )
    t2 = theta * theta
    return (1.0 + t2) * (beta + t2) / t2


def outlier_locations(strengths, beta):
    """Limiting outlier eigenvalue of each signal strength theta; nan where theta <= beta^(1/4).

    For theta = tau * beta^(1/4) the rule theta > beta^(1/4) is tau > 1 bit
    for bit, since multiplying by beta^(1/4) keeps floating-point order.
    """
    threshold = beta ** 0.25
    return np.array([spike_eigenvalue_location(theta, beta) if theta > threshold else np.nan
                     for theta in np.asarray(strengths, dtype=float)], dtype=float)


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
    lam = outlier_locations([theta], beta)[0]
    if math.isnan(lam):
        return edge, 0.0, 0.0
    t2 = theta * theta
    u_sq = 1.0 - beta * (1.0 + t2) / (t2 * (t2 + beta))
    v_sq = 1.0 - (beta + t2) / (t2 * (t2 + 1.0))
    return lam, u_sq, v_sq


def predict(taus, beta):
    """One TheoryPrediction per spike, in the given (decreasing) tau order."""
    _, edge = mp.bulk_edges(beta)
    taus = np.asarray(taus, dtype=float)
    theta = calibrate_signal_strengths(taus, np.zeros(taus.shape), beta)
    out = []
    for tau, lam in zip(taus, outlier_locations(theta, beta)):
        above = not math.isnan(lam)
        out.append(
            TheoryPrediction(
                tau=float(tau),
                beta=float(beta),
                above_threshold=above,
                lambda_bar=lam if above else edge,
                centered_limit=centered_eigenvalue_limit(tau),
                cosine_left=left_cosine_limit(tau),
                right_overlap_scale=beta ** 0.25,
            )
        )
    return out
