"""Empirical spectra: covariance, singular triples, Stieltjes sums, overlaps."""

import math

import numpy as np
import pytest

from spikedwide.ensemble import (
    ModelConfig,
    assemble_spiked,
    sample_model,
    stream,
    truncate_normalize,
)
from spikedwide.errors import NumericalError, PoleError, ValidationError
from spikedwide.spectra import (
    _GramKernel,
    covariance_eigenvalues,
    empirical_stieltjes,
    overlap_matrix,
    right_projection_energy,
    sample_covariance,
    top_spectrum,
)

SEED = 20260808


class TestSampleCovariance:
    def test_zero(self):
        assert np.array_equal(sample_covariance(np.zeros((3, 5))), np.zeros((3, 3)))

    def test_row_vector(self):
        assert sample_covariance(np.ones((1, 4))) == pytest.approx(np.array([[1.0]]))

    def test_against_triple_loop(self):
        x = stream(SEED, "noise").standard_normal((3, 5))
        s = sample_covariance(x)
        brute = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                for k in range(5):
                    brute[i, j] += x[i, k] * x[j, k] / 5
        assert np.abs(s - brute).max() < 1e-12

    def test_exactly_symmetric(self):
        x = stream(SEED, "noise").standard_normal((6, 9))
        s = sample_covariance(x)
        assert np.array_equal(s, s.T)


class TestTopSpectrum:
    def test_diagonal(self):
        spec = top_spectrum(np.diag([3.0, 2.0]), 2)
        assert spec.eigenvalues == pytest.approx([4.5, 2.0], abs=1e-12)
        assert np.abs(np.abs(spec.left_vectors) - np.eye(2)).max() < 1e-12
        # sign canonicalization makes the vectors exactly the standard basis
        assert spec.left_vectors[0, 0] > 0 and spec.left_vectors[1, 1] > 0

    def test_rank_one(self):
        rng = stream(SEED, "signal")
        u = rng.standard_normal(5); u /= np.linalg.norm(u)
        v = rng.standard_normal(8); v /= np.linalg.norm(v)
        x = math.sqrt(8) * 2.0 * np.outer(u, v)
        spec = top_spectrum(x, 1)
        assert spec.eigenvalues[0] == pytest.approx(4.0, abs=1e-10)
        assert abs(abs(spec.left_vectors[:, 0] @ u) - 1) < 1e-10

    def test_eigenvalues_against_characteristic_polynomial(self):
        x = stream(SEED, "noise").standard_normal((4, 6))
        spec = top_spectrum(x, 2)
        roots = np.sort(np.real(np.roots(np.poly(sample_covariance(x)))))[::-1]
        assert np.abs(spec.eigenvalues - roots).max() < 1e-8

    def test_svd_consistency(self):
        x = stream(SEED, "noise").standard_normal((8, 20))
        spec = top_spectrum(x, 8)
        sing = np.linalg.svd(x / math.sqrt(20), compute_uv=False)
        assert np.abs(spec.eigenvalues - sing ** 2).max() < 1e-8 * sing[0] ** 2

    def test_trace_identity(self):
        x = stream(SEED, "noise").standard_normal((10, 25))
        spec = top_spectrum(x, 3)
        tr = np.trace(sample_covariance(x))
        assert abs(spec.eigenvalues.sum() - tr) < 1e-10 * tr

    def test_unit_norms_and_triple_consistency(self):
        x = stream(SEED, "noise").standard_normal((10, 25))
        spec = top_spectrum(x, 5)
        assert np.abs(np.linalg.norm(spec.left_vectors, axis=0) - 1).max() < 1e-10
        assert np.abs(np.linalg.norm(spec.right_vectors, axis=0) - 1).max() < 1e-10
        for j in range(5):
            sigma = math.sqrt(spec.eigenvalues[j])
            resid = x @ spec.right_vectors[:, j] / math.sqrt(25) - sigma * spec.left_vectors[:, j]
            assert np.abs(resid).max() < 1e-10

    def test_rank_guard_is_scale_free(self):
        # A well-conditioned full-rank matrix stays full rank at any scale.
        x = stream(SEED, "noise").standard_normal((4, 40))
        spec = top_spectrum(1e15 * x, 4)
        assert spec.eigenvalues == pytest.approx(1e30 * top_spectrum(x, 4).eigenvalues,
                                                 rel=1e-10)

    def test_rank_deficient_raises(self):
        # Rank 3: the 4th eigenvalue is rounding noise, about 5e-17 of the top one.
        rng = stream(SEED, "signal")
        x = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 40))
        with pytest.raises(NumericalError):
            top_spectrum(x, 4)
        assert top_spectrum(x, 3).k == 3

    def test_k_validation(self):
        x = np.eye(3)
        for k in (0, 4):
            with pytest.raises(ValidationError):
                top_spectrum(x, k)


class TestEmpiricalStieltjes:
    def test_single_eigenvalue(self):
        s, ds = empirical_stieltjes([1.0], 2.0)
        assert s == -1.0 and ds == 1.0

    def test_identity_spectrum_at_zero(self):
        s, ds = empirical_stieltjes(np.ones(7), 0.0)
        assert s == 1.0 and ds == 1.0

    def test_extended_precision_oracle(self):
        lam = stream(SEED, "noise").uniform(0.5, 3.0, size=50)
        z = 5.0 + 0.1j
        s, ds = empirical_stieltjes(lam, z)
        acc = np.clongdouble(0); dacc = np.clongdouble(0)
        for v in lam:
            term = 1.0 / (np.clongdouble(v) - np.clongdouble(z))
            acc += term
            dacc += term * term
        assert abs(s - complex(acc / 50)) < 1e-12
        assert abs(ds - complex(dacc / 50)) < 1e-12

    def test_pole(self):
        with pytest.raises(PoleError):
            empirical_stieltjes([1.0, 2.0], 2.0 + 1e-16)

    def test_conjugate_symmetry(self):
        lam = stream(SEED, "noise").uniform(0.5, 3.0, size=9)
        z = 1.7 + 0.4j
        s, _ = empirical_stieltjes(lam, z)
        sc, _ = empirical_stieltjes(lam, np.conj(z))
        assert s == pytest.approx(np.conj(sc), abs=1e-14)

    def test_real_branch_signs(self):
        lam = stream(SEED, "noise").uniform(0.5, 3.0, size=9)
        s, ds = empirical_stieltjes(lam, lam.max() + 1.0)
        assert s < 0 and ds > 0


class TestOverlapMatrix:
    def test_identity_block(self):
        q = np.linalg.qr(stream(SEED, "signal").standard_normal((7, 3)))[0]
        assert np.abs(overlap_matrix(q, q) - np.eye(3)).max() < 1e-12

    def test_orthogonal_columns(self):
        q = np.linalg.qr(stream(SEED, "signal").standard_normal((7, 4)))[0]
        assert np.abs(overlap_matrix(q[:, :2], q[:, 2:])).max() < 1e-12

    def test_against_brute_force(self):
        rng = stream(SEED, "noise")
        a = rng.standard_normal((6, 2)); b = rng.standard_normal((6, 3))
        got = overlap_matrix(a, b)
        for i in range(2):
            for j in range(3):
                assert abs(got[i, j] - np.dot(a[:, i], b[:, j])) < 1e-14

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            overlap_matrix(np.zeros((5, 2)), np.zeros((6, 2)))


class TestRightProjectionEnergy:
    def test_row_space_vector(self):
        x = stream(SEED, "noise").standard_normal((4, 9))
        v = x.T @ np.array([0.3, -1.0, 0.2, 0.5])
        v /= np.linalg.norm(v)
        assert right_projection_energy(x, v) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_vector(self):
        x = stream(SEED, "noise").standard_normal((4, 9))
        g = stream(SEED, "probe").standard_normal(9)
        # remove row-space component
        q = np.linalg.qr(x.T)[0]
        v = g - q @ (q.T @ g)
        v /= np.linalg.norm(v)
        assert right_projection_energy(x, v) < 1e-12

    def test_matches_svd_oracle(self):
        x = stream(SEED, "noise").standard_normal((5, 12))
        v = stream(SEED, "probe").standard_normal(12)
        want = np.linalg.norm(np.linalg.svd(x, full_matrices=False)[2] @ v) ** 2
        assert right_projection_energy(x, v) == pytest.approx(want, rel=1e-10)

    def test_gaussian_concentration(self):
        # value approximately beta = n/m; all of 40 seeds inside [0.002, 0.05]
        hits = 0
        for seed in range(40):
            x = stream(seed, "noise").standard_normal((50, 5000))
            v = stream(seed, "probe").standard_normal(5000)
            v /= np.linalg.norm(v)
            hits += 0.002 <= right_projection_energy(x, v) <= 0.05
        assert hits >= 40 * 0.99

    def test_bounded_by_norm(self):
        x = stream(SEED, "noise").standard_normal((6, 30))
        v = stream(SEED, "probe").standard_normal(30) * 2.0
        e = right_projection_energy(x, v)
        assert 0.0 <= e <= np.dot(v, v) + 1e-12

    def test_rank_deficient_rejected(self):
        x = stream(SEED, "noise").standard_normal((4, 9))
        x[3] = x[0] + x[1]
        with pytest.raises(NumericalError):
            right_projection_energy(x, np.ones(9))


def _gram_projection_energy(x, v):
    """The direct formula: eigh of the unscaled Gram X X', then y' diag(1/w) y."""
    w, q = np.linalg.eigh(x @ x.T)
    y = q.T @ (x @ v)
    return float(np.sum(y * y / w))


def _match_signs(got, want):
    return got * np.sign(np.sum(got * want, axis=0))


class TestGramKernel:
    """The sufficient-statistics kernel against references built from X_tilde and X."""

    @pytest.mark.parametrize("truncate", [False, True])
    @pytest.mark.parametrize("family", ["gaussian_iid", "orthonormal"])
    @pytest.mark.parametrize("taus", [(), (2.0,), (3.0, 2.0, 0.8)])
    def test_matches_dense_references(self, taus, family, truncate):
        config = ModelConfig(n=60, m=3000, r=len(taus), taus=taus, signal_family=family,
                             noise_family="student_t8", seed=SEED)
        sample = sample_model(config, 2)
        if truncate:
            sample = assemble_spiked(sample.U, sample.V, sample.theta,
                                     truncate_normalize(sample.X))
        kernel = sample._kernel
        k = max(sample.r, 1)
        ref = top_spectrum(sample.X_tilde, k)

        def rel(got, want):
            return np.max(np.abs(got - want) / np.abs(want))

        assert rel(kernel.eigenvalues, ref.eigenvalues) <= 1e-12
        assert rel(kernel.noise_eigenvalues, covariance_eigenvalues(sample.X)) <= 1e-12
        left, sigma = kernel.top(k)
        assert np.abs(_match_signs(left, ref.left_vectors) - ref.left_vectors).max() <= 1e-10
        assert sigma == pytest.approx(np.sqrt(ref.eigenvalues[:k]), rel=1e-12)
        v = stream(SEED, "probe").standard_normal(sample.m) / math.sqrt(sample.m)
        assert kernel.projection_energy(sample.X @ v) == pytest.approx(
            _gram_projection_energy(sample.X, v), rel=1e-10)
        if sample.r:
            u_cos, v_cos = kernel.signal_cosines(sample.r)
            u_unit = sample.U / np.linalg.norm(sample.U, axis=0)
            v_unit = sample.V / np.linalg.norm(sample.V, axis=0)
            assert np.abs(np.abs(u_cos) - np.abs(u_unit.T @ ref.left_vectors)).max() <= 1e-10
            assert np.abs(np.abs(v_cos) - np.abs(v_unit.T @ ref.right_vectors)).max() <= 1e-10
            signal = (sample.U * sample.theta) @ sample.V.T
            want = np.linalg.svd(signal, compute_uv=False)[:sample.r]
            assert rel(kernel.signal_strengths(), want) <= 1e-12

    def test_one_spike_strength_is_theta_times_norms(self):
        config = ModelConfig(n=40, m=800, r=1, taus=(2.0,), seed=SEED)
        sample = sample_model(config)
        want = sample.theta[0] * np.linalg.norm(sample.U) * np.linalg.norm(sample.V)
        assert sample._kernel.signal_strengths()[0] == pytest.approx(want, rel=1e-13)

    def test_kernel_holds_no_m_sized_array(self):
        config = ModelConfig(n=30, m=900, r=2, taus=(3.0, 2.0), seed=SEED)
        kernel = sample_model(config)._kernel
        kernel.signal_cosines(2)
        kernel.projection_energy(np.ones(30))
        arrays = [a for value in vars(kernel).values()
                  for a in (value if isinstance(value, tuple) else (value,))
                  if isinstance(a, np.ndarray)]
        assert len(arrays) >= 8
        assert all(900 not in a.shape for a in arrays)

    def test_noise_only_kernel_shares_one_eigh(self):
        x = stream(SEED, "noise").standard_normal((20, 400))
        kernel = _GramKernel(x)
        assert kernel.eigenvalues is kernel.noise_eigenvalues

    def test_strength_copy_shares_the_statistics_not_the_spectrum(self):
        # Its own observed spectrum, bit for bit that of a kernel drawn at
        # the new strengths; G, X V, V'V, U and the noise eigh are shared.
        weak = ModelConfig(n=30, m=900, r=2, taus=(1.5, 0.7), seed=SEED)
        strong = weak.replace(taus=(3.0, 2.0), eps=(0.1, 0.0))
        kernel = sample_model(weak)._kernel
        kernel.signal_cosines(2)
        kernel.noise_eigh
        copy = kernel.with_strengths(sample_model(strong).theta)
        fresh = sample_model(strong)._kernel
        assert np.array_equal(copy.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(copy.signal_cosines(2)[0], fresh.signal_cosines(2)[0])
        assert not np.array_equal(copy.eigenvalues, kernel.eigenvalues)
        for name in ("G", "XV", "VV", "U", "noise_eigh"):
            assert getattr(copy, name) is getattr(kernel, name)
