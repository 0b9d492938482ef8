"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Stochastic criteria run at the frozen suite seed; tolerances are the pinned
acceptance values, not calibrated to the draws.
"""

import math
import time

import numpy as np
from scipy.optimize import brentq

from conftest import CORES, SUITE_SEED, SWEEP_BETA
from spikedwide import mp
from spikedwide.ensemble import (
    ModelConfig,
    sample_model,
    sample_noise,
    stream,
    truncate_normalize,
)
from spikedwide.estimator import estimate_tau
from spikedwide.master import EmpiricalMasterEvaluator, deterministic_master, rescale_blocks
from spikedwide.montecarlo import fit_rate, run_experiment
from spikedwide.cli import main as cli_main
from spikedwide.predictions import spike_eigenvalue_location
from spikedwide.spectra import covariance_eigenvalues, top_spectrum


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    return ok


class TestCriterion1:
    def test_exact_identity_suite(self):
        t0 = time.time()
        worst_rt = 0.0
        for beta in (0.5, 0.1, 0.01, 0.001):
            hi = beta ** -0.5
            for t in np.geomspace(0.01 * hi, 0.99 * hi, 200):  # 800 pairs total
                z = mp.d_transform_inverse(t, beta)
                worst_rt = max(worst_rt, abs(mp.d_transform(z, beta) - t) / t)

        worst_quad = 0.0
        for beta in (0.5, 0.1, 0.01, 0.001):
            _, edge = mp.bulk_edges(beta)
            for z in np.linspace(edge + 0.01 * math.sqrt(beta), edge + 8, 50):
                s, _ = mp.stieltjes(z, beta)
                worst_quad = max(worst_quad, abs(beta * z * s * s + (z + beta - 1) * s + 1))

        theta = np.array([0.9, 0.5])
        worst_fact = worst_resc = 0.0
        for beta in (0.25, 0.04):
            _, edge = mp.bulk_edges(beta)
            for z in np.linspace(edge * 1.01, edge * 1.01 + 4, 30):
                master = deterministic_master(theta, beta, z)
                det = master.det()
                d = mp.d_transform(z, beta)
                target = (d - theta[0] ** -2) * (d - theta[1] ** -2)
                worst_fact = max(worst_fact, abs(det - target) / max(1.0, abs(det)))
                resc_det = rescale_blocks(master).det()
                worst_resc = max(worst_resc,
                                 abs(det - beta ** -1.0 * resc_det) / max(1.0, abs(det)))

        worst_inv = 0.0
        for beta in (0.1, 0.01):
            for tau in (1.2, 1.6, 2.0, 3.0):
                lam = spike_eigenvalue_location(tau * beta ** 0.25, beta)
                worst_inv = max(worst_inv, abs(estimate_tau(lam, beta)[0] - tau))
        elapsed = time.time() - t0

        ok = (worst_rt < 1e-9 and worst_quad < 1e-12 and worst_fact < 1e-10
              and worst_resc < 1e-12 and worst_inv < 1e-10 and elapsed < 1.0)
        assert report(1, ok,
                      f"round-trip {worst_rt:.1e} (<1e-9), quadratic {worst_quad:.1e} "
                      f"(<1e-12), factorization {worst_fact:.1e} (<1e-10), rescale "
                      f"{worst_resc:.1e} (<1e-12), estimator {worst_inv:.1e} (<1e-10), "
                      f"{elapsed:.2f}s (<1s)")


class TestCriterion2:
    def test_brute_force_root_oracle(self):
        t0 = time.time()
        worst_match = 0.0
        worst_kernel = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 7))
            m = int(rng.integers(n, 11))
            r = int(rng.integers(1, 3))
            tau1 = float(rng.uniform(1.5, 3.0))
            taus = (tau1,) if r == 1 else (tau1, float(rng.uniform(0.4, 0.9) * tau1))
            config = ModelConfig(n=n, m=m, r=r, taus=taus, seed=seed)
            sample = sample_model(config)
            evaluator = EmpiricalMasterEvaluator(sample)
            lam_noise = np.sort(evaluator.noise_eigenvalues)
            lam_spiked = covariance_eigenvalues(sample.X_tilde)
            scale = max(1.0, lam_spiked[0])
            guard = 1e-5 * scale
            non_noise = [lam for lam in lam_spiked
                         if np.min(np.abs(lam - lam_noise)) > guard]

            det = lambda z: evaluator.det(z).real
            # every real root of det outside the noise spectrum, by scan + refine
            lo = 0.25 * min(lam_noise.min(), lam_spiked.min())
            hi = 1.5 * max(lam_noise.max(), lam_spiked.max()) + 0.5
            breaks = np.concatenate([[lo], np.sort(lam_noise), [hi]])
            roots = []
            for a, b in zip(breaks[:-1], breaks[1:]):
                a, b = a + guard, b - guard
                if b <= a:
                    continue
                grid = np.linspace(a, b, 800)
                vals = np.array([det(z) for z in grid])
                for i in np.flatnonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:])):
                    roots.append(brentq(det, grid[i], grid[i + 1], xtol=1e-13))

            # the two sets must coincide to 1e-8
            assert len(roots) == len(non_noise), (
                f"seed {seed}: {len(roots)} roots vs {len(non_noise)} spiked eigenvalues")
            for root, lam in zip(sorted(roots), sorted(non_noise)):
                worst_match = max(worst_match, abs(root - lam))

            spectrum = top_spectrum(sample.X_tilde, r)
            for i in range(r):
                lam = spectrum.eigenvalues[i]
                if np.min(np.abs(lam - lam_noise)) <= guard:
                    continue
                w = np.concatenate([
                    sample.theta * (sample.V.T @ spectrum.right_vectors[:, i]),
                    sample.theta * (sample.U.T @ spectrum.left_vectors[:, i]),
                ])
                resid = np.linalg.norm(evaluator(lam).entries @ w)
                worst_kernel = max(worst_kernel, resid)
        elapsed = time.time() - t0
        ok = worst_match < 1e-8 and worst_kernel < 1e-6 and elapsed < 10.0
        assert report(2, ok,
                      f"root coincidence {worst_match:.1e} (<1e-8), kernel residual "
                      f"{worst_kernel:.1e} (<1e-6), {elapsed:.1f}s (<10s), 20 seeds")


class TestCriterion3:
    def test_eigenvalue_limits(self, tau_sweep_reports):
        rep = tau_sweep_reports[1.6]
        sqrt_beta = math.sqrt(SWEEP_BETA)
        centered = (rep.per_spike[0]["lambda_emp"].mean - 1.0) / sqrt_beta
        bulk = (rep.scalars["bulk_top"].mean - 1.0) / (2.0 * sqrt_beta)
        ok = abs(centered - 2.950625) <= 0.25 and abs(bulk - 1.0) <= 0.15
        assert report(3, ok,
                      f"mean (lam1-1)/sqrt(beta) = {centered:.4f} in 2.950625 +/- 0.25; "
                      f"mean (lam2-1)/(2 sqrt(beta)) = {bulk:.4f} in 1 +/- 0.15")


class TestCriterion4:
    def test_overlap_limits(self, tau_sweep_reports):
        sp = tau_sweep_reports[1.6].per_spike[0]
        u, v = sp["u_overlap"].mean, sp["v_overlap"].mean
        cross = max(sp["u_cross_max"].mean, sp["v_cross_max"].mean)
        ok = abs(u - 0.92055) <= 0.05 and v <= 0.80 and cross <= 0.1
        assert report(4, ok,
                      f"mean left overlap {u:.4f} in 0.92055 +/- 0.05; mean right "
                      f"overlap {v:.4f} <= 0.80 (= 3 beta^(1/4)); cross {cross:.4f} <= 0.1")


class TestCriterion5:
    def test_phase_transition_sweep(self, tau_sweep_reports, critical_overlap_curve):
        means = {tau: tau_sweep_reports[tau].per_spike[0]["u_overlap"].mean
                 for tau in (0.6, 1.0, 1.6)}
        subcritical_ok = means[0.6] < 0.25
        # The critical overlap tends to 0 in the limit; at n=200 it is still
        # ~0.4, so tau=1.0 is checked as a decay in n (see README.md).
        critical_slope = fit_rate(critical_overlap_curve.items())
        critical_ok = critical_slope < 0
        strong_ok = means[1.6] > 0.85
        monotone = means[0.6] < means[1.0] < means[1.6]
        ok = subcritical_ok and critical_ok and strong_ok and monotone
        curve = ", ".join(f"n={n}: {mean:.4f}" for n, mean in critical_overlap_curve.items())
        assert report(
            5, ok,
            f"mean u_overlap: tau=0.6 -> {means[0.6]:.4f} (<0.25: "
            f"{subcritical_ok}), tau=1.0 -> {curve} (slope {critical_slope:.3f}, "
            f"<0: {critical_ok}), tau=1.6 -> {means[1.6]:.4f} (>0.85: "
            f"{strong_ok}), monotone: {monotone}"
        ), ("criterion 5 needs tau=0.6 < 0.25, a tau=1.0 overlap that decays "
            "in n, tau=1.6 > 0.85 and overlaps increasing in tau")


class TestCriterion6:
    def test_stieltjes_deviation_trend(self):
        ns = (200, 400, 800)
        values, derivs = [], []
        for n in ns:
            m = math.ceil(n ** 1.5)
            config = ModelConfig(n=n, m=m, r=0, seed=SUITE_SEED)
            rep = run_experiment(config, 20, CORES, measure_stieltjes=True, u_offset=1.0)
            assert rep.failed_count == 0, rep.failures
            values.append(float(np.median([r.stieltjes_dev for r in rep.records])))
            derivs.append(float(np.median([r.stieltjes_ddev for r in rep.records])))
        slope_s = fit_rate(list(zip(ns, values)))
        slope_ds = fit_rate(list(zip(ns, derivs)))
        mono_s = all(a >= b for a, b in zip(values, values[1:]))
        mono_ds = all(a >= b for a, b in zip(derivs, derivs[1:]))
        ok = mono_s and mono_ds and slope_s < 0 and slope_ds < 0
        assert report(6, ok,
                      f"value medians {[f'{x:.2e}' for x in values]} "
                      f"(slope {slope_s:.2f}), derivative medians "
                      f"{[f'{x:.2e}' for x in derivs]} (slope {slope_ds:.2f}); "
                      f"both non-increasing and slopes < 0")


class TestCriterion7:
    def test_projection_energy_envelope(self):
        stats = {}
        ok = True
        for n in (100, 400):
            config = ModelConfig(n=n, m=100 * n, r=0, seed=SUITE_SEED)
            rep = run_experiment(config, 100, CORES, measure_projection=True)
            assert rep.failed_count == 0, rep.failures
            beta = config.n / config.m
            energies = [r.proj_energy for r in rep.records]
            log_ok = np.mean([e / (beta * math.log(n)) < 3.0 for e in energies])
            mean_ratio = float(np.mean([e / beta for e in energies]))
            stats[n] = (log_ok, mean_ratio)
            ok = ok and log_ok >= 0.99 and abs(mean_ratio - 1.0) <= 0.3
        assert report(7, ok,
                      "; ".join(f"n={n}: energy/(beta log n) < 3 in {s[0]:.0%}, "
                                f"mean energy/beta = {s[1]:.3f}" for n, s in stats.items()))


class TestCriterion8:
    def test_truncation_perturbation(self):
        n, m, bound = 100, 10000, 10.0 / math.sqrt(100 * 10000)
        worst = 0.0
        for trial in range(20):
            x = sample_noise(n, m, "student_t8", stream(SUITE_SEED, "noise", trial))
            lam = covariance_eigenvalues(x)
            lam_trunc = covariance_eigenvalues(truncate_normalize(x))
            worst = max(worst, float(np.abs(lam - lam_trunc).max()))
        ok = worst <= bound
        assert report(8, ok,
                      f"max_i |lam_i - lam_i(truncated)| = {worst:.2e} <= "
                      f"10/sqrt(nm) = {bound:.2e} over 20 heavy-tailed trials")


class TestCriterion9:
    def test_cli_reproducibility(self, tmp_path, capsys):
        args = ["simulate", "--n", "50", "--m", "500", "--taus", "2",
                "--trials", "8", "--seed", "7"]
        outputs = {}
        for par in ("1", "8"):
            out_dir = tmp_path / f"par{par}"
            code = cli_main(args + ["--parallelism", par, "--out-dir", str(out_dir)])
            assert code == 0
            outputs[par] = (out_dir / "trials.csv").read_bytes()
        rerun_dir = tmp_path / "rerun"
        code = cli_main(args + ["--parallelism", "1", "--out-dir", str(rerun_dir)])
        assert code == 0
        rerun = (rerun_dir / "trials.csv").read_bytes()
        capsys.readouterr()
        ok = outputs["1"] == outputs["8"] == rerun and len(rerun) > 0
        assert report(9, ok,
                      f"trials.csv byte-identical across parallelism 1 vs 8 and "
                      f"reruns ({len(rerun)} bytes)")
