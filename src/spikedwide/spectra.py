"""Empirical spectral computations for wide data matrices.

All spectra refer to the scaled Gram matrix (1/m) X X' of an n x m input,
whose eigenvalues are the squared singular values of (1/sqrt(m)) X.
Top singular triples are recovered from the n x n eigenproblem (never the
m x m one), which is the cheap side at extreme aspect ratios.
"""

from dataclasses import dataclass

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

    def to_dict(self):
        return {"eigenvalues": self.eigenvalues.tolist(), "k": self.k}


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
    n, m = X_tilde.shape
    if not 1 <= k <= n:
        raise ValidationError(f"need 1 <= k <= n, got k={k}, n={n}")
    w, q = np.linalg.eigh(sample_covariance(X_tilde))
    eigenvalues = np.maximum(w[::-1], 0.0)
    left = q[:, ::-1][:, :k].copy()
    if eigenvalues[k - 1] <= RANK_TOL * eigenvalues[0]:
        raise NumericalError("requested singular triples below numerical rank")
    sigma = np.sqrt(eigenvalues[:k])
    right = (X_tilde.T @ left) / (np.sqrt(m) * sigma)
    for j in range(k):
        i_max = np.argmax(np.abs(left[:, j]))
        if left[i_max, j] < 0:
            left[:, j] = -left[:, j]
            right[:, j] = -right[:, j]
    return SpectralSummary(eigenvalues=eigenvalues, left_vectors=left,
                           right_vectors=right, k=k)


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
    g = X @ X.T
    w, q = np.linalg.eigh(g)
    if w[0] <= RANK_TOL * w[-1]:
        raise NumericalError("X is (numerically) rank deficient")
    y = q.T @ (X @ v)
    return float(np.sum(y * y / w))
