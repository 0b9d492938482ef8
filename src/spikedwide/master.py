"""2r x 2r master matrices whose determinant roots locate outlier eigenvalues.

Three kinds share one block layout (r x r blocks):

    [ sqrt(z) * <left resolvent form>     diag(1/theta) + <cross term> ]
    [ transpose of cross term             sqrt(z) * <right resolvent form> ]

empirical: resolvent forms of the realized noise matrix; semi_empirical:
the empirical Stieltjes transform times identities; deterministic: the
Marchenko-Pastur transform times identities. Outliers are certified by
counting determinant roots inside small contours with the argument principle.
The empirical forms and the certificates read the noise eigh of (1/m) X X',
X V and V'V, and the observed spectrum, from one spectra._GramKernel per
sample; neither forms X_tilde.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import mp
from .errors import CertificationError, PoleError, ValidationError
from .predictions import spike_eigenvalue_location
from .spectra import _GramKernel, empirical_stieltjes

__all__ = [
    "MasterMatrix",
    "RootCertificate",
    "deterministic_master",
    "semi_empirical_master",
    "empirical_master",
    "EmpiricalMasterEvaluator",
    "rescale_blocks",
    "winding_count",
    "certify_outliers",
]

DEFAULT_ELL = 0.2
DEFAULT_NODES = 256


@dataclass(frozen=True)
class MasterMatrix:
    entries: np.ndarray  # 2r x 2r complex
    kind: str            # empirical | semi_empirical | deterministic
    z: complex
    beta: float
    theta: np.ndarray

    @property
    def r(self):
        return self.theta.shape[0]

    def det(self):
        return complex(np.linalg.det(self.entries))


@dataclass(frozen=True)
class RootCertificate:
    """Result of counting determinant roots around one predicted outlier."""

    spike_index: int
    center: float
    radius: float
    winding: int
    certified: bool
    lambda_emp: float
    centered_gap: float  # |lambda_emp - center| / sqrt(beta)

    def to_dict(self):
        return {
            "spike_index": self.spike_index,
            "center": self.center,
            "radius": self.radius,
            "winding": self.winding,
            "certified": self.certified,
            "lambda_emp": self.lambda_emp,
            "centered_gap": self.centered_gap,
        }


def _check_theta(theta):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.size == 0:
        raise ValidationError("need at least one spike (r >= 1)")
    if np.any(theta <= 0):
        raise ValidationError("all theta must be positive (diag(1/theta) is needed)")
    return theta


def _assemble(a, c, d, theta, z, beta, kind):
    """Lay out [[A, diag(1/theta) + C], [(diag(1/theta) + C)', D]] from r x r blocks."""
    r = theta.shape[0]
    off = c + np.diag(1.0 / theta)
    m2 = np.empty((2 * r, 2 * r), dtype=complex)
    m2[:r, :r] = a
    m2[:r, r:] = off
    m2[r:, :r] = off.T
    m2[r:, r:] = d
    return MasterMatrix(entries=m2, kind=kind, z=complex(z), beta=beta, theta=theta)


def _scalar_master(s, theta, z, beta, kind):
    sz = cmath.sqrt(complex(z))
    a = np.diag(np.full(len(theta), sz * s))
    d = np.diag(np.full(len(theta), beta * sz * s - (1.0 - beta) / sz))
    return _assemble(a, 0.0, d, theta, z, beta, kind)


def deterministic_master(theta, beta, z):
    """Master matrix built from the Marchenko-Pastur Stieltjes transform.

    Its determinant factors as prod_i (D(z) - theta_i^-2) with D the
    d_transform, so the roots are exactly the predicted outlier locations.
    """
    theta = _check_theta(theta)
    s, _ = mp.stieltjes(z, beta)
    return _scalar_master(s, theta, z, beta, "deterministic")


def semi_empirical_master(theta, noise_eigenvalues, beta, z):
    """Master matrix with the empirical noise Stieltjes transform on the diagonal."""
    theta = _check_theta(theta)
    s, _ = empirical_stieltjes(noise_eigenvalues, z)
    return _scalar_master(s, theta, z, beta, "semi_empirical")


class EmpiricalMasterEvaluator:
    """Evaluates the empirical master matrix at many z for one sample.

    Reads the eigh of the n x n noise Gram matrix (1/m) X X', X V and V'V
    from the sample's _GramKernel (pass one to share it with the caller;
    otherwise one is built here). The m x m companion resolvent is folded
    through the identity
    ((1/m) X'X - z)^{-1} = -(1/z) (I_m - (1/m) X' ((1/m) XX' - z)^{-1} X),
    so each evaluation costs O(n r^2).
    """

    def __init__(self, sample, kernel=None):
        if sample.r < 1:
            raise ValidationError("empirical master matrix needs r >= 1")
        self.theta = _check_theta(sample.theta)
        self.beta = sample.beta
        if kernel is None:
            kernel = _GramKernel.of(sample)
        w, q = kernel.noise_eigh
        self.noise_eigenvalues = kernel.noise_eigenvalues
        self._w = w
        self._pu = q.T @ sample.U                               # n x r
        self._py = q.T @ kernel.XV / math.sqrt(sample.m)        # n x r
        self._vv = kernel.VV                                    # r x r

    def __call__(self, z):
        zc = complex(z)
        if np.min(np.abs(self._w - zc)) <= 1e-12:
            raise PoleError(f"z={z} within 1e-12 of a noise eigenvalue")
        g = 1.0 / (self._w - zc)
        r11 = self._pu.T @ (g[:, None] * self._pu)
        r12 = self._pu.T @ (g[:, None] * self._py)
        r22 = self._py.T @ (g[:, None] * self._py)
        sz = cmath.sqrt(zc)
        return _assemble(sz * r11, r12, -(self._vv - r22) / sz,
                         self.theta, zc, self.beta, "empirical")

    def det(self, z):
        return self(z).det()


def empirical_master(sample, z):
    """One-shot empirical master matrix (use the evaluator for many z)."""
    return EmpiricalMasterEvaluator(sample)(z)


def rescale_blocks(master):
    """Scale blocks by [sqrt(beta), beta^(1/4); beta^(1/4), 1].

    Balances the block magnitudes near the bulk; determinants obey
    det(original) = beta^(-r/2) * det(rescaled).
    """
    r = master.r
    b = master.beta
    e = master.entries.copy()
    e[:r, :r] *= math.sqrt(b)
    e[:r, r:] *= b ** 0.25
    e[r:, :r] *= b ** 0.25
    return MasterMatrix(entries=e, kind=master.kind, z=master.z,
                        beta=b, theta=master.theta)


def winding_count(f, center, radius, nodes=DEFAULT_NODES):
    """Number of zeros of f inside the circle, by discrete argument tracking.

    Accumulates the wrapped phase increments of f around equally spaced
    contour nodes. Requires no (near-)zeros of f on the contour and a total
    winding within 0.1 of an integer; node-doubling is the caller's
    consistency check.
    """
    if nodes < 64:
        raise ValidationError("need at least 64 contour nodes")
    if radius <= 0:
        raise ValidationError("radius must be positive")
    angles = 2.0 * math.pi * np.arange(nodes) / nodes
    vals = np.array([complex(f(center + radius * cmath.exp(1j * a))) for a in angles])
    mags = np.abs(vals)
    if np.min(mags) <= 1e-12 * np.max(mags):
        raise CertificationError("f vanishes (numerically) on the contour")
    phases = np.angle(vals)
    steps = np.diff(np.concatenate([phases, phases[:1]]))
    steps = (steps + math.pi) % (2.0 * math.pi) - math.pi
    total = steps.sum() / (2.0 * math.pi)
    nearest = round(total)
    if abs(total - nearest) > 0.1:
        raise CertificationError(
            f"winding sum {total:.4f} is not close to an integer; refine the contour"
        )
    return int(nearest)


def _contour_clear(noise_eigenvalues, center, radius):
    # Real poles must stay off the circle and out of its interior.
    d = np.abs(noise_eigenvalues - center)
    margin = 1e-8 * max(1.0, abs(center))
    return not (np.any(np.abs(d - radius) < margin) or np.any(d < radius - margin))


def certify_outliers(sample, ell=DEFAULT_ELL, nodes=DEFAULT_NODES):
    """Winding-number certificates for every above-threshold spike.

    Spikes are those of the realised signal U diag(theta) V': its singular
    values (for one spike theta |u| |v|, which for i.i.d. signal vectors
    moves off theta by O(n^(-1/2))) decide which spikes are above threshold
    and where their outliers should sit. Each contour is a circle of radius
    n^(-ell) * sqrt(beta) around that location; a certificate holds when the
    determinant of the empirical master matrix has winding number exactly 1.
    Also reports the rank-matched empirical eigenvalue and its gap in
    sqrt(beta) units.
    """
    if not 0.0 < ell < 0.25:
        raise ValidationError("ell must lie in (0, 1/4)")
    if sample.r == 0:
        return []
    beta = sample.beta
    kernel = _GramKernel.of(sample)
    strengths = [s for s in kernel.signal_strengths() if s / beta ** 0.25 > 1.0]
    if not strengths:
        return []

    evaluator = EmpiricalMasterEvaluator(sample, kernel)
    base_radius = sample.n ** (-ell) * math.sqrt(beta)
    certificates = []
    for i, strength in enumerate(strengths):
        center = spike_eigenvalue_location(strength, beta)
        winding = None
        last_error = None
        for factor in (1.0, 0.85, 0.7):
            radius = base_radius * factor
            if not _contour_clear(evaluator.noise_eigenvalues, center, radius):
                last_error = CertificationError("noise eigenvalue on or inside contour")
                continue
            try:
                winding = winding_count(evaluator.det, center, radius, nodes)
                break
            except (CertificationError, PoleError) as exc:
                last_error = exc
        if winding is None:
            raise CertificationError(
                f"no admissible contour around spike {i} at {center:.6g}"
            ) from last_error
        lam = float(kernel.eigenvalues[i])
        certificates.append(
            RootCertificate(
                spike_index=i,
                center=float(center),
                radius=float(radius),
                winding=winding,
                certified=winding == 1,
                lambda_emp=lam,
                centered_gap=abs(lam - center) / math.sqrt(beta),
            )
        )
    return certificates
