"""Master matrices: block identities, determinant roots, winding certification."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from spikedwide import mp, predictions, spectra
from spikedwide.ensemble import ModelConfig, sample_model
from spikedwide.errors import CertificationError, PoleError, ValidationError
from spikedwide.master import (
    EmpiricalMasterEvaluator,
    MasterMatrix,
    certify_outliers,
    contour_bytes,
    deterministic_master,
    empirical_master,
    rescale_blocks,
    semi_empirical_master,
    winding_count,
)
from spikedwide.montecarlo import trial_bytes
from spikedwide.spectra import covariance_eigenvalues, top_spectrum

SEED = 20260808


def brute_force_master(sample, z):
    """All four blocks via dense n x n and m x m resolvents."""
    n, m = sample.n, sample.m
    s_n = sample.X @ sample.X.T / m
    companion = sample.X.T @ sample.X / m
    rn = np.linalg.inv(s_n - z * np.eye(n)).astype(complex)
    rm = np.linalg.inv(companion - z * np.eye(m)).astype(complex)
    sz = cmath.sqrt(z)
    theta_inv = np.diag(1.0 / sample.theta)
    ul = sz * sample.U.T @ rn @ sample.U
    ur = sample.U.T @ rn @ sample.X @ sample.V / math.sqrt(m) + theta_inv
    ll = sample.V.T @ sample.X.T @ rn @ sample.U / math.sqrt(m) + theta_inv
    lr = sz * sample.V.T @ rm @ sample.V
    return np.block([[ul, ur], [ll, lr]])


class TestDeterministicMaster:
    def test_root_at_predicted_location(self):
        theta = np.array([math.sqrt(0.2)])
        lam = mp.d_transform_inverse(theta[0] ** -2, 0.01)
        assert abs(deterministic_master(theta, 0.01, lam).det()) < 1e-10

    def test_two_by_two_arithmetic(self):
        # det equals the direct 2x2 value a*d - 1/theta^2, and D(z) - theta^-2.
        z, beta = 5.0, 1.0
        s, _ = mp.stieltjes(z, beta)
        a = math.sqrt(z) * s
        d = beta * math.sqrt(z) * s - (1 - beta) / math.sqrt(z)
        got = deterministic_master(np.array([1.0]), beta, z).det()
        assert got == pytest.approx(a * d - 1.0, abs=1e-12)
        assert got == pytest.approx(mp.d_transform(z, beta) - 1.0, abs=1e-10)

    def test_factorization_with_huge_second_spike(self):
        theta = np.array([0.9, 1e9])
        z, beta = 3.0, 0.25
        d = mp.d_transform(z, beta)
        got = deterministic_master(theta, beta, z).det()
        assert got == pytest.approx((d - 0.9 ** -2) * d, rel=1e-10)

    def test_factorization_on_grid(self):
        theta = np.array([0.9, 0.5])
        for beta in (0.25, 0.04):
            _, edge = mp.bulk_edges(beta)
            for z in np.linspace(edge * 1.01, edge * 1.01 + 4, 30):
                m_bar = deterministic_master(theta, beta, z)
                d = mp.d_transform(z, beta)
                target = (d - theta[0] ** -2) * (d - theta[1] ** -2)
                det = m_bar.det()
                assert abs(det - target) < 1e-10 * max(1.0, abs(det))

    def test_symmetric_with_diagonal_off_blocks(self):
        theta = np.array([0.8, 0.3])
        m_bar = deterministic_master(theta, 0.1, 2.5)
        e = m_bar.entries
        assert np.array_equal(e, e.T)
        assert np.array_equal(e[:2, 2:], np.diag(1.0 / theta))

    def test_rejects_zero_theta(self):
        with pytest.raises(ValidationError):
            deterministic_master(np.array([1.0, 0.0]), 0.1, 3.0)


class TestEmpiricalMaster:
    def test_all_blocks_against_brute_force_tiny(self):
        config = ModelConfig(n=2, m=2, r=1, taus=(1.5,), seed=SEED)
        sample = sample_model(config)
        for z in (4.0 + 0.0j, 2.0 + 0.5j, -0.7 + 0.1j):
            got = empirical_master(sample, z).entries
            want = brute_force_master(sample, z)
            assert np.abs(got - want).max() < 1e-10

    def test_all_blocks_against_brute_force_rank_two(self):
        config = ModelConfig(n=5, m=9, r=2, taus=(2.5, 1.2), seed=SEED)
        sample = sample_model(config)
        for z in (6.0, 1.3 + 0.2j):
            got = empirical_master(sample, z).entries
            want = brute_force_master(sample, z)
            assert np.abs(got - want).max() < 1e-10

    def test_near_symmetry(self):
        config = ModelConfig(n=6, m=10, r=2, taus=(2.0, 1.1), seed=1)
        sample = sample_model(config)
        e = empirical_master(sample, 5.0).entries
        assert np.abs(e - e.T).max() < 1e-10

    def test_outlier_eigenvalues_are_roots(self):
        config = ModelConfig(n=6, m=10, r=2, taus=(2.4, 1.6), seed=2)
        sample = sample_model(config)
        evaluator = EmpiricalMasterEvaluator(sample)
        lam_spiked = covariance_eigenvalues(sample.X_tilde)
        beta = sample.beta
        for lam in lam_spiked[:2]:
            assert abs(evaluator.det(lam)) < 1e-6 * beta ** -1.0

    def test_kernel_vector(self):
        config = ModelConfig(n=6, m=10, r=2, taus=(2.4, 1.6), seed=2)
        sample = sample_model(config)
        evaluator = EmpiricalMasterEvaluator(sample)
        spectrum = top_spectrum(sample.X_tilde, 2)
        for i in range(2):
            w = np.concatenate([
                sample.theta * (sample.V.T @ spectrum.right_vectors[:, i]),
                sample.theta * (sample.U.T @ spectrum.left_vectors[:, i]),
            ])
            resid = np.linalg.norm(evaluator(spectrum.eigenvalues[i]).entries @ w)
            assert resid < 1e-6

    @pytest.mark.parametrize("taus", [(2.0,), (3.0, 2.0, 1.5)])
    def test_array_det_matches_one_z_at_a_time(self, taus):
        config = ModelConfig(n=40, m=400, r=len(taus), taus=taus, seed=SEED)
        evaluator = EmpiricalMasterEvaluator(sample_model(config))
        top = evaluator.noise_eigenvalues[0]
        for zs in (np.linspace(top + 0.1, top + 3.0, 7),
                   top + 0.5 + 0.4 * np.exp(1j * np.linspace(0.0, 6.0, 9))):
            got = evaluator.det(zs)
            want = np.array([evaluator(z).det() for z in zs])
            assert got.shape == zs.shape
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_pole_detection(self):
        config = ModelConfig(n=5, m=8, r=1, taus=(1.5,), seed=3)
        sample = sample_model(config)
        evaluator = EmpiricalMasterEvaluator(sample)
        with pytest.raises(PoleError):
            evaluator(evaluator.noise_eigenvalues[0])


class TestRescale:
    def test_square_case_unchanged(self):
        m_bar = deterministic_master(np.array([0.9]), 1.0, 5.0)
        assert np.array_equal(rescale_blocks(m_bar).entries, m_bar.entries)

    def test_zero_matrix(self):
        zero = MasterMatrix(entries=np.zeros((2, 2), dtype=complex), kind="deterministic",
                            z=3.0, beta=0.04, theta=np.array([1.0]))
        assert np.array_equal(rescale_blocks(zero).entries, np.zeros((2, 2)))

    def test_det_identity_all_kinds(self):
        config = ModelConfig(n=6, m=12, r=2, taus=(2.0, 1.2), seed=4)
        sample = sample_model(config)
        beta = sample.beta
        noise_eigs = covariance_eigenvalues(sample.X)
        z = 7.5
        kinds = [
            deterministic_master(sample.theta, beta, z),
            semi_empirical_master(sample.theta, noise_eigs, beta, z),
            empirical_master(sample, z),
        ]
        for master in kinds:
            det = np.linalg.det(master.entries)
            det_rescaled = np.linalg.det(rescale_blocks(master).entries)
            assert abs(det - beta ** -1.0 * det_rescaled) < 1e-12 * max(1.0, abs(det))


class TestWindingCount:
    def test_simple_zero_inside(self):
        assert winding_count(lambda z: z - 0.3, 0.3, 0.5, 64) == 1

    def test_simple_zero_outside(self):
        assert winding_count(lambda z: z - 2.0, 0.3, 0.5, 64) == 0

    def test_double_zero(self):
        assert winding_count(lambda z: (z - 0.3) ** 2, 0.3, 0.4, 64) == 2

    def test_zero_on_contour_rejected(self):
        with pytest.raises(CertificationError):
            winding_count(lambda z: z - 1.0, 0.0, 1.0, 64)

    def test_node_minimum(self):
        with pytest.raises(ValidationError):
            winding_count(lambda z: z, 0.0, 1.0, 32)

    def test_one_call_on_doubled_nodes(self):
        calls = []

        def f(z):
            calls.append(np.shape(z))
            return z - 0.3

        assert winding_count(f, 0.3, 0.5, 64) == 1
        assert calls == [(128,)]

    def test_node_doubling_refuses_a_coarse_contour(self):
        # At 64 nodes z^40 turns 1.25 pi per step and reads as winding -24;
        # the 128 doubled nodes see 40, so no count is returned.
        with pytest.raises(CertificationError):
            winding_count(lambda z: z ** 40, 0.0, 1.0, 64)

    def test_node_doubling_on_empirical_determinant(self):
        config = ModelConfig(n=80, m=4000, r=1, taus=(2.0,), seed=SEED,
                             signal_family="orthonormal")
        sample = sample_model(config)
        evaluator = EmpiricalMasterEvaluator(sample)
        pred = predictions.predict(config.taus, sample.beta)[0]
        radius = sample.n ** -0.2 * math.sqrt(sample.beta)
        counts = {nodes: winding_count(evaluator.det, pred.lambda_bar, radius, nodes)
                  for nodes in (64, 128, 256)}
        assert len(set(counts.values())) == 1

    @pytest.mark.parametrize("nodes", [64, 256])
    @pytest.mark.parametrize("r", [1, 4])
    @pytest.mark.parametrize("n", [20, 100, 300])
    def test_contour_peak_within_its_forecast(self, n, r, nodes):
        # numpy's fixed ufunc buffer outweighs the per-node arrays of a
        # contour with few nodes; at the default 256 the forecast is tight.
        config = ModelConfig(n=n, m=10 * n, r=r, taus=(3.0, 2.6, 2.2, 1.8)[:r],
                             seed=SEED, signal_family="orthonormal")
        evaluator = EmpiricalMasterEvaluator(sample_model(config))
        center = evaluator.noise_eigenvalues.max() + 1.0
        winding_count(evaluator.det, center, 0.25, nodes)
        tracemalloc.start()
        try:
            winding_count(evaluator.det, center, 0.25, nodes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        forecast = contour_bytes(n, r, nodes)
        assert peak <= forecast, f"peak {peak} B over forecast {forecast} B"
        if nodes == 256:
            assert forecast <= 1.25 * peak, f"forecast / peak = {forecast / peak:.3f}"


class TestCertifyOutliers:
    def test_strong_spike_certified(self):
        # tau=2, n=300, beta=0.01, orthonormal signal vectors: the predicted
        # location is accurate enough that every contour catches one root.
        config = ModelConfig(n=300, m=30000, r=1, taus=(2.0,), seed=SEED,
                             signal_family="orthonormal")
        certified = 0
        for trial in range(20):
            sample = sample_model(config, trial)
            certs = certify_outliers(sample)
            assert len(certs) == 1
            certified += certs[0].certified
        assert certified >= 19  # >= 95% of seeds

    def test_subcritical_empty(self):
        config = ModelConfig(n=40, m=2000, r=1, taus=(0.5,), seed=SEED)
        assert certify_outliers(sample_model(config)) == []

    def test_rank_zero_empty(self):
        config = ModelConfig(n=40, m=2000, r=0, seed=SEED)
        assert certify_outliers(sample_model(config)) == []

    def test_certificate_contents(self):
        config = ModelConfig(n=200, m=20000, r=1, taus=(2.2,), seed=SEED,
                             signal_family="orthonormal")
        sample = sample_model(config)
        cert = certify_outliers(sample)[0]
        assert cert.winding == 1 and cert.certified
        assert cert.spike_index == 0
        pred = predictions.predict(config.taus, sample.beta)[0]
        assert cert.center == pytest.approx(pred.lambda_bar, abs=1e-12)
        assert abs(cert.lambda_emp - cert.center) == pytest.approx(
            cert.centered_gap * math.sqrt(sample.beta), abs=1e-12)

    def test_realised_centre_is_closer_than_nominal(self):
        # i.i.d. signal vectors: the realised strength theta |u| |v| moves the
        # outlier off the nominal location; the contour follows it.
        config = ModelConfig(n=200, m=20000, r=1, taus=(2.0,), seed=SEED)
        nominal = predictions.predict(config.taus, config.beta)[0].lambda_bar
        realised_gaps, nominal_gaps = [], []
        for trial in range(8):
            sample = sample_model(config, trial)
            cert = certify_outliers(sample)[0]
            strength = sample.theta[0] * np.linalg.norm(sample.U) * np.linalg.norm(sample.V)
            assert cert.center == pytest.approx(
                predictions.spike_eigenvalue_location(strength, sample.beta), rel=1e-12)
            realised_gaps.append(abs(cert.lambda_emp - cert.center))
            nominal_gaps.append(abs(cert.lambda_emp - nominal))
        assert np.mean(realised_gaps) < np.mean(nominal_gaps)

    def test_mixed_ranks_certifies_only_supercritical(self):
        config = ModelConfig(n=120, m=12000, r=2, taus=(2.4, 0.8), seed=SEED,
                             signal_family="orthonormal")
        certs = certify_outliers(sample_model(config))
        assert [c.spike_index for c in certs] == [0]
        assert certs[0].certified

    @pytest.mark.parametrize("family", ["gaussian", "rademacher"])
    def test_draw_peak_within_its_forecast(self, family):
        # One verify draw (sample, then certify) against the byte budget the
        # pool gives it: one trial plus the contour's arrays.
        config = ModelConfig(n=60, m=6000, r=2, taus=(3.0, 2.0), noise_family=family,
                             signal_family="orthonormal", seed=SEED)
        assert [c.winding for c in certify_outliers(sample_model(config))] == [1, 1]
        tracemalloc.start()
        try:
            certify_outliers(sample_model(config))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        forecast = trial_bytes(60, 6000, 2, family) + contour_bytes(60, 2)
        assert peak <= forecast <= 1.25 * peak, f"forecast / peak = {forecast / peak:.3f}"

    def test_ell_range_enforced(self):
        config = ModelConfig(n=40, m=2000, r=1, taus=(2.0,), seed=SEED)
        sample = sample_model(config)
        for ell in (0.0, 0.25, 0.4):
            with pytest.raises(ValidationError):
                certify_outliers(sample, ell=ell)

    @pytest.mark.parametrize("taus", [(), (0.5,)], ids=["rank-zero", "subcritical"])
    def test_nodes_checked_with_no_contour_to_draw(self, taus):
        config = ModelConfig(n=40, m=2000, r=len(taus), taus=taus, seed=SEED)
        with pytest.raises(ValidationError, match="64 contour nodes"):
            certify_outliers(sample_model(config), nodes=0)

    def test_one_gram_per_sample(self, monkeypatch):
        # Certificates, the evaluator and empirical_master all read the
        # sample's one kernel: one Gram and one noise eigh between them.
        config = ModelConfig(n=60, m=3000, r=2, taus=(3.0, 2.0), seed=SEED,
                             signal_family="orthonormal")
        sample = sample_model(config)
        grams, eighs = [], []
        sample_covariance, eigh = spectra.sample_covariance, np.linalg.eigh
        monkeypatch.setattr(spectra, "sample_covariance",
                            lambda X: grams.append(X) or sample_covariance(X))
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a) or eigh(a))
        assert certify_outliers(sample) == certify_outliers(sample)
        EmpiricalMasterEvaluator(sample).det(5.0)
        empirical_master(sample, 5.0)
        assert len(grams) == 1
        assert sum(a is sample._kernel.G for a in eighs) == 1
