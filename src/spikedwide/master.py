"""2r x 2r master matrices whose determinant roots locate outlier eigenvalues.

Three kinds share one block layout (r x r blocks):

    [ sqrt(z) * <left resolvent form>     diag(1/theta) + <cross term> ]
    [ transpose of cross term             sqrt(z) * <right resolvent form> ]

empirical: resolvent forms of the realized noise matrix; semi_empirical:
the empirical Stieltjes transform times identities; deterministic: the
Marchenko-Pastur transform times identities. Outliers are certified by
counting determinant roots inside small contours with the argument principle.
The empirical forms and the certificates read a sample's r and its cached
_kernel only (see spectra._GramKernel).
"""

import cmath
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _runtime, mp
from .errors import CertificationError, PoleError, ValidationError
from .predictions import outlier_locations
from .spectra import empirical_stieltjes

__all__ = [
    "MasterMatrix",
    "RootCertificate",
    "deterministic_master",
    "semi_empirical_master",
    "empirical_master",
    "EmpiricalMasterEvaluator",
    "rescale_blocks",
    "winding_count",
    "contour_bytes",
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
        return asdict(self)


def _check_theta(theta):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.size == 0:
        raise ValidationError("need at least one spike (r >= 1)")
    if np.any(theta <= 0):
        raise ValidationError("all theta must be positive (diag(1/theta) is needed)")
    return theta


def _layout(a, c, d, theta):
    """Lay out [[A, diag(1/theta) + C], [(diag(1/theta) + C)', D]] from r x r blocks.

    Blocks may be stacked along leading axes (one matrix per contour node).
    """
    r = theta.shape[0]
    off = c + np.diag(1.0 / theta)
    m2 = np.empty(off.shape[:-2] + (2 * r, 2 * r), dtype=complex)
    m2[..., :r, :r] = a
    m2[..., :r, r:] = off
    m2[..., r:, :r] = np.swapaxes(off, -1, -2)
    m2[..., r:, r:] = d
    return m2


def _scalar_master(s, theta, z, beta, kind):
    sz = cmath.sqrt(complex(z))
    a = np.diag(np.full(len(theta), sz * s))
    d = np.diag(np.full(len(theta), beta * sz * s - (1.0 - beta) / sz))
    return MasterMatrix(entries=_layout(a, 0.0, d, theta), kind=kind, z=complex(z),
                        beta=beta, theta=theta)


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
    """Evaluates the empirical master matrix at one z or at a whole array of z.

    Reads the sample's cached _kernel (see spectra._GramKernel). The m x m
    companion resolvent is folded through the identity
    ((1/m) X'X - z)^{-1} = -(1/z) (I_m - (1/m) X' ((1/m) XX' - z)^{-1} X),
    so the resolvent forms are those of P = Q' [U | X V / sqrt(m)] in the
    diagonal 1 / (w - z). At any array of z they take two real products,
    Re(1 / (w - z)) @ T and Im(1 / (w - z)) @ T, with the n x r(2r+1) table T
    of products P_ki P_kj for i <= j, built once and expanded to 2r x 2r by
    an index map.
    """

    def __init__(self, sample):
        if sample.r < 1:
            raise ValidationError("empirical master matrix needs r >= 1")
        kernel = sample._kernel
        self.theta = _check_theta(kernel.theta)
        self.beta = kernel.beta
        w, q = kernel.noise_eigh
        self.noise_eigenvalues = kernel.noise_eigenvalues
        self._w = w
        p = q.T @ np.hstack([kernel.U, kernel.XV / math.sqrt(kernel.m)])   # n x 2r
        i, j = np.triu_indices(p.shape[1])
        self._table = p[:, i] * p[:, j]                      # n x r(2r+1), i <= j
        pair = np.empty((p.shape[1],) * 2, dtype=int)
        pair[i, j] = pair[j, i] = np.arange(i.size)
        self._expand = pair.reshape(-1)     # table column of each 2r x 2r entry
        self._vv = kernel.VV                                                # r x r

    def _entries(self, z):
        """The 2r x 2r entries at z, stacked along the leading axes of z."""
        z = np.asarray(z, dtype=complex)
        # 1 / (w - z) = (d + i Im z) / d2 with d = w - Re z and d2 = |w - z|^2.
        d = self._w - z.real[..., None]
        d2 = d * d
        d2 += (z.imag * z.imag)[..., None]
        if np.min(d2) <= 1e-24:
            raise PoleError("z within 1e-12 of a noise eigenvalue")
        re = np.divide(d, d2, out=d)
        im = np.divide(z.imag[..., None], d2, out=d2)
        r = self.theta.shape[0]
        forms = (re @ self._table + 1j * (im @ self._table))[..., self._expand]
        forms = forms.reshape(z.shape + (2 * r, 2 * r))
        sz = np.sqrt(z)[..., None, None]
        return _layout(sz * forms[..., :r, :r], forms[..., :r, r:],
                       (forms[..., r:, r:] - self._vv) / sz, self.theta)

    def __call__(self, z):
        return MasterMatrix(entries=self._entries(z), kind="empirical", z=complex(z),
                            beta=self.beta, theta=self.theta)

    def det(self, z):
        """det of the master matrix at z: a complex for one z, an array for an array."""
        d = np.linalg.det(self._entries(z))
        return complex(d) if np.ndim(d) == 0 else d


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


def _check_certify_options(nodes, ell=DEFAULT_ELL):
    """The one check of certify_outliers' ell and winding_count's nodes."""
    if not 0.0 < ell < 0.25:
        raise ValidationError("ell must lie in (0, 1/4)")
    if nodes < 64:
        raise ValidationError("need at least 64 contour nodes")


def winding_count(f, center, radius, nodes=DEFAULT_NODES):
    """Number of zeros of f inside the circle, by discrete argument tracking.

    Calls f once, on an array of 2 * nodes equally spaced contour points.
    The wrapped phase increments are summed over all of them and over every
    other one; both sums must lie within 0.1 of the same integer (node
    doubling, Delves & Lyness 1967) and f must not (nearly) vanish on the
    contour, or CertificationError is raised.
    """
    _check_certify_options(nodes)
    if radius <= 0:
        raise ValidationError("radius must be positive")
    angles = 2.0 * math.pi * np.arange(2 * nodes) / (2 * nodes)
    vals = np.asarray(f(center + radius * np.exp(1j * angles)), dtype=complex)
    mags = np.abs(vals)
    if np.min(mags) <= 1e-12 * np.max(mags):
        raise CertificationError("f vanishes (numerically) on the contour")
    fine, coarse = (np.angle(np.roll(v, -1) / v).sum() / (2.0 * math.pi)
                    for v in (vals, vals[::2]))
    count = round(fine)
    if abs(fine - count) > 0.1 or abs(coarse - count) > 0.1:
        raise CertificationError(
            f"node doubling: winding sums {fine:.4f} ({2 * nodes} nodes) and "
            f"{coarse:.4f} ({nodes} nodes) are not both close to one integer"
        )
    return int(count)


def contour_bytes(n, r, nodes=DEFAULT_NODES):
    """Bytes one winding_count of an n x n, rank-r evaluator holds at once.

    The determinant is evaluated on 2 * nodes points in one pass: two real
    (2 nodes) x n arrays of resolvent denominators, and about three complex
    (2 nodes) x 2r x 2r arrays of master-matrix entries (tracemalloc on small
    shapes). On top comes numpy's ufunc buffer, a fixed np.getbufsize()
    float64 elements beside both denominators (the in-place d2 += (Im z)^2;
    the broadcast w - Re z buffers two operands beside one array), which
    dominates a contour with few nodes. certify_outliers holds these beside
    one trial's arrays.
    """
    return 16 * 2 * nodes * (n + 3 * (2 * r) ** 2) + 8 * np.getbufsize()


def _contour_clear(noise_eigenvalues, center, radius):
    # Real poles must stay off the circle and out of its interior.
    d = np.abs(noise_eigenvalues - center)
    margin = 1e-8 * max(1.0, abs(center))
    return not (np.any(np.abs(d - radius) < margin) or np.any(d < radius - margin))


@_runtime.one_blas_thread()
def certify_outliers(sample, ell=DEFAULT_ELL, nodes=DEFAULT_NODES):
    """Winding-number certificates for every above-threshold spike.

    Spikes are those of the realised signal U diag(theta) V': its singular
    values (for one spike theta |u| |v|, which for i.i.d. signal vectors
    moves off theta by O(n^(-1/2))) give, through outlier_locations, which
    spikes are above threshold and where their outliers should sit. Each
    contour is a circle of radius n^(-ell) * sqrt(beta) around that location;
    a certificate holds when the determinant of the empirical master matrix
    has winding number exactly 1. Also reports the rank-matched empirical
    eigenvalue and its gap in sqrt(beta) units.
    """
    _check_certify_options(nodes, ell)
    if sample.r == 0:
        return []
    kernel = sample._kernel
    beta = kernel.beta
    centers = outlier_locations(kernel.signal_strengths(), beta)
    centers = centers[~np.isnan(centers)]
    if not centers.size:
        return []

    evaluator = EmpiricalMasterEvaluator(sample)
    base_radius = kernel.n ** (-ell) * math.sqrt(beta)
    certificates = []
    for i, center in enumerate(centers):
        winding = None
        refusals = []   # one "radius ...: check (reason)" per refused rung
        for factor in (1.0, 0.85, 0.7):
            radius = base_radius * factor
            if not _contour_clear(evaluator.noise_eigenvalues, center, radius):
                refusals.append(f"radius {radius:.6g}: _contour_clear "
                                "(noise eigenvalue on or inside contour)")
                continue
            try:
                winding = winding_count(evaluator.det, center, radius, nodes)
                break
            except CertificationError as exc:
                refusals.append(f"radius {radius:.6g}: winding_count ({exc})")
            except PoleError as exc:
                refusals.append(f"radius {radius:.6g}: pole ({exc})")
        if winding is None:
            raise CertificationError(
                f"no admissible contour around spike {i} at {center:.6g}; "
                + "; ".join(refusals)
            )
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
