"""Empirical spectral computations for wide data matrices.

All spectra refer to the scaled Gram matrix (1/m) X X' of an n x m input,
whose eigenvalues are the squared singular values of (1/sqrt(m)) X.
Top singular triples are recovered from the n x n eigenproblem (never the
m x m one), which is the cheap side at extreme aspect ratios.
"""

import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError, PoleError, ValidationError

__all__ = [
    "SpectralSummary",
    "sample_covariance",
    "covariance_eigenvalues",
    "top_spectrum",
    "empirical_stieltjes",
    "overlap_matrix",
    "right_projection_energy",
]

#: Relative eigenvalue floor of (1/m) X X' below which X counts as rank deficient.
RANK_TOL = 1e-12


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalues of (1/m) X X' plus the top-k singular triples of X."""

    eigenvalues: np.ndarray   # all n, descending, >= 0
    left_vectors: np.ndarray  # n x k
    right_vectors: np.ndarray  # m x k
    k: int


def sample_covariance(X):
    """(1/m) X X', symmetrized exactly."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValidationError("X must be a matrix")
    s = X @ X.T / X.shape[1]
    return (s + s.T) / 2.0


def covariance_eigenvalues(X):
    """Descending eigenvalues of (1/m) X X', tiny negatives clamped to 0."""
    w = np.linalg.eigvalsh(sample_covariance(X))
    return np.maximum(w[::-1], 0.0)


def top_spectrum(X_tilde, k):
    """All eigenvalues of (1/m) X X' and the top-k singular vectors of X.

    Left vectors come from the n x n eigenproblem; right vectors follow from
    v_i = X' u_i / (sqrt(m) sigma_i). Each (u_i, v_i) pair is sign-flipped so
    the largest-magnitude coordinate of u_i is positive (flipping both keeps
    the singular decomposition intact).
    """
    X_tilde = np.asarray(X_tilde, dtype=float)
    kernel = _GramKernel(X_tilde)
    left, sigma = kernel.top(k)
    right = (X_tilde.T @ left) / (np.sqrt(kernel.m) * sigma)
    return SpectralSummary(eigenvalues=kernel.eigenvalues, left_vectors=left,
                           right_vectors=right, k=k)


class _GramKernel:
    """Sufficient statistics of one observed X_tilde = X + sqrt(m) U diag(theta) V'.

    The seam between a draw and its measurements: trials (montecarlo) and
    certificates (master) read n, m, beta = n / m, U, theta and the
    statistics below, never X. G = (1/m) X X', X V and V'V are computed once,
    when the kernel is built; no reference to X or V is kept, so the kernel
    holds n x n, n x r and r x r arrays only. The eigh of G and of the
    observed Gram are computed on first use and kept. The observed Gram is
    the rank-2r update (1/m) X_tilde X_tilde' = G + T + T' with
    T = (X V / sqrt(m) + U Theta (V'V) / 2) (U Theta)', exactly symmetric, so
    X_tilde is never formed. Without signal factors the observed Gram is G and
    shares its eigh. The projection energy takes the product X v, which its
    caller, montecarlo._draw_trial, forms before the kernel.
    """

    def __init__(self, X, U=None, theta=None, V=None):
        n, m = X.shape
        self.n, self.m, self.beta = n, m, n / m
        self.theta = np.zeros(0) if theta is None else theta
        self.U = np.zeros((n, 0)) if U is None else U
        V = np.zeros((m, 0)) if V is None else V
        self.r = self.theta.shape[0]
        self.G = sample_covariance(X)
        self.XV = X @ V
        self.VV = V.T @ V

    def with_strengths(self, theta):
        """The kernel of the same X, U and V under strengths theta: a shallow
        copy sharing every statistic and cache but the observed spectrum."""
        kernel = copy.copy(self)
        kernel.theta = theta
        for name in ("_observed_eigh", "eigenvalues"):
            kernel.__dict__.pop(name, None)
        return kernel

    @cached_property
    def noise_eigh(self):
        """Ascending (w, q) of G."""
        return np.linalg.eigh(self.G)

    @cached_property
    def noise_eigenvalues(self):
        """Eigenvalues of G, descending, tiny negatives clamped to 0."""
        return np.maximum(self.noise_eigh[0][::-1], 0.0)

    @cached_property
    def _observed_eigh(self):
        if not self.r:
            return self.noise_eigh
        a = self.U * self.theta
        t = (self.XV / np.sqrt(self.m) + a @ (self.VV / 2.0)) @ a.T
        return np.linalg.eigh(self.G + (t + t.T))

    @cached_property
    def eigenvalues(self):
        """Eigenvalues of (1/m) X_tilde X_tilde', descending, tiny negatives clamped to 0."""
        if not self.r:
            return self.noise_eigenvalues
        return np.maximum(self._observed_eigh[0][::-1], 0.0)

    def top(self, k):
        """(left, sigma): top-k left singular vectors of X_tilde, sign-fixed, and
        sigma_i = sqrt(lambda_i). Raises below the numerical rank."""
        if not 1 <= k <= self.n:
            raise ValidationError(f"need 1 <= k <= n, got k={k}, n={self.n}")
        eigenvalues = self.eigenvalues
        if eigenvalues[k - 1] <= RANK_TOL * eigenvalues[0]:
            raise NumericalError("requested singular triples below numerical rank")
        left = self._observed_eigh[1][:, ::-1][:, :k].copy()
        # The largest-magnitude coordinate of each u_i is made positive.
        flip = left[np.argmax(np.abs(left), axis=0), np.arange(k)] < 0
        left[:, flip] = -left[:, flip]
        return left, np.sqrt(eigenvalues[:k])

    def signal_cosines(self, k):
        """(u_cos, v_cos), r x k: cosines of the unit signal vectors with the top-k
        left and right singular vectors.

        The right vectors v_i = X_tilde' u_i / (sqrt(m) sigma_i), with
        X_tilde' u = X' u + sqrt(m) V Theta U' u, are not formed: only
        V' v_i = ((X V)' u_i / sqrt(m) + (V'V) Theta U' u_i) / sigma_i is, and
        |v_j| = sqrt((V'V)_jj).
        """
        left, sigma = self.top(k)
        u_cos = overlap_matrix(self.U / np.linalg.norm(self.U, axis=0), left)
        v_in = (self.XV.T @ left / np.sqrt(self.m)
                + self.VV @ (self.theta[:, None] * (self.U.T @ left))) / sigma
        return u_cos, v_in / np.sqrt(np.diag(self.VV))[:, None]

    def signal_strengths(self):
        """Singular values of U diag(theta) V', descending.

        They are those of R_U Theta R_V' with U = Q_U R_U and V = Q_V R_V; the
        R factors come from Cholesky factors of U'U and V'V. For one spike
        this is theta |u| |v|.
        """
        r_u = np.linalg.cholesky(self.U.T @ self.U).T
        r_v = np.linalg.cholesky(self.VV).T
        return np.linalg.svd((r_u * self.theta) @ r_v.T, compute_uv=False)

    def projection_energy(self, xv):
        """v' X' (X X')^{-1} X v from the eigh of G, given xv = X v; raises
        below full row rank."""
        w, q = self.noise_eigh
        if w[0] <= RANK_TOL * w[-1]:
            raise NumericalError("X is (numerically) rank deficient")
        y = q.T @ xv
        return float(np.sum(y * y / w)) / self.m


def empirical_stieltjes(eigenvalues, z):
    """(s, s') with s = mean(1/(lam - z)) and s' = mean(1/(lam - z)^2).

    The derivative uses the calculus sign convention (positive for real z
    beyond the spectrum). z closer than 1e-14 to an eigenvalue is a pole.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValidationError("eigenvalues must be a nonempty vector")
    diff = lam - z
    if np.min(np.abs(diff)) <= 1e-14:
        raise PoleError(f"z={z} within 1e-14 of an eigenvalue")
    inv = 1.0 / diff
    s = inv.mean()
    ds = (inv * inv).mean()
    return s, ds


def overlap_matrix(A, B):
    """Matrix of inner products <a_i, b_j>; callers take absolute values."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] < 1 or B.shape[1] < 1:
        raise ValidationError("A and B must be matrices with at least one column")
    if A.shape[0] != B.shape[0]:
        raise ValidationError(f"row mismatch: {A.shape[0]} vs {B.shape[0]}")
    return A.T @ B


def right_projection_energy(X, v):
    """‖W' v‖^2 where W spans the top-n right singular subspace of X.

    Equals v' X' (X X')^{-1} X v, computed through the n x n Gram matrix.
    Requires full row rank; rank deficiency raises instead of silently
    falling back to a pseudo-inverse.
    """
    X = np.asarray(X, dtype=float)
    v = np.asarray(v, dtype=float)
    n, m = X.shape
    if n > m:
        raise ValidationError("need n <= m (wide input)")
    if v.shape != (m,):
        raise ValidationError(f"v must have length m={m}")
    return _GramKernel(X).projection_energy(X @ v)
