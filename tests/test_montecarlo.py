"""Harness behavior: determinism, aggregation, schedules, rate experiments.

The phase-transition sweep checks reuse the session-scope fixture from
conftest (n=200, beta=0.005, 50 trials per tau).
"""

import math
import time

import numpy as np
import pytest

from conftest import SUITE_SEED, SWEEP_BETA, SWEEP_N, SWEEP_TAUS, SWEEP_TRIALS
from spikedwide import montecarlo
from spikedwide.ensemble import ModelConfig, SpikedSample, sample_model, stream
from spikedwide.errors import ExperimentError, PoleError, ValidationError
from spikedwide.master import certify_outliers
from spikedwide.montecarlo import (
    BetaSchedule,
    fit_rate,
    probe_deviation,
    projection_energy_experiment,
    run_experiment,
    run_trial,
    stieltjes_deviation_experiment,
    sweep,
    write_trials_csv,
)
from spikedwide.predictions import (
    centered_eigenvalue_limit,
    left_cosine_limit,
    proportional_reference,
)
from spikedwide.spectra import empirical_stieltjes, top_spectrum


class TestRunTrial:
    def test_measurements_match_the_rate_experiments(self):
        # Same noise stream, same probe path: the numbers agree exactly.
        for config in (ModelConfig(n=40, m=800, r=0, seed=SUITE_SEED),
                       ModelConfig(n=40, m=800, r=2, taus=(2.0, 1.2), seed=SUITE_SEED)):
            for t in (0, 1):
                rec = run_trial(config, t, measure_stieltjes=True, measure_projection=True)
                assert rec.stieltjes_dev == stieltjes_deviation_experiment(config, t).value
                assert rec.proj_energy == projection_energy_experiment(config, t).energy

    def test_fields_match_dense_references(self):
        # The kernel path against the top spectrum of the formed X_tilde and
        # the projection formula on the unscaled Gram X X'.
        config = ModelConfig(n=60, m=3000, r=2, taus=(2.0, 1.2), seed=SUITE_SEED)
        rec = run_trial(config, 1, measure_projection=True)
        sample = sample_model(config, 1)
        ref = top_spectrum(sample.X_tilde, 3)
        assert rec.lambda_emp == pytest.approx(ref.eigenvalues[:2], rel=1e-12)
        assert rec.bulk_top == pytest.approx(ref.eigenvalues[2], rel=1e-12)
        u_unit = sample.U / np.linalg.norm(sample.U, axis=0)
        v_unit = sample.V / np.linalg.norm(sample.V, axis=0)
        u_ov = np.abs(u_unit.T @ ref.left_vectors[:, :2])
        v_ov = np.abs(v_unit.T @ ref.right_vectors[:, :2])
        assert np.abs(rec.u_overlap - np.diag(u_ov)).max() <= 1e-10
        assert np.abs(rec.v_overlap - np.diag(v_ov)).max() <= 1e-10
        assert np.abs(rec.v_cross_max - [v_ov[1, 0], v_ov[0, 1]]).max() <= 1e-10
        v = stream(SUITE_SEED, "probe", 1).standard_normal(3000) / math.sqrt(3000)
        w, q = np.linalg.eigh(sample.X @ sample.X.T)
        y = q.T @ (sample.X @ v)
        assert rec.proj_energy == pytest.approx(float(np.sum(y * y / w)), rel=1e-10)

    def test_trial_and_certificates_never_form_x_tilde(self, monkeypatch):
        def formed(sample):
            raise AssertionError("X_tilde was formed")

        monkeypatch.setattr(SpikedSample, "X_tilde", property(formed))
        config = ModelConfig(n=120, m=12000, r=2, taus=(2.4, 0.8), seed=SUITE_SEED,
                             signal_family="orthonormal")
        for truncate in (False, True):
            rec = run_trial(config, 0, measure_stieltjes=True, measure_projection=True,
                            truncate_noise=truncate)
            assert rec.stieltjes_dev > 0 and rec.proj_energy > 0
        assert [c.spike_index for c in certify_outliers(sample_model(config))] == [0]

    def test_rank_zero(self):
        config = ModelConfig(n=30, m=300, r=0, seed=1)
        rec = run_trial(config, 0)
        assert rec.lambda_emp.size == 0 and rec.u_overlap.size == 0
        assert rec.bulk_top > 0
        assert rec.rows() == []

    def test_deterministic(self):
        config = ModelConfig(n=25, m=250, r=1, taus=(1.8,), seed=5)
        a, b = run_trial(config, 3), run_trial(config, 3)
        assert np.array_equal(a.lambda_emp, b.lambda_emp)
        assert np.array_equal(a.u_overlap, b.u_overlap)
        assert a.bulk_top == b.bulk_top

    def test_supercritical_fields(self):
        config = ModelConfig(n=50, m=2500, r=2, taus=(2.5, 0.5), seed=5)
        rec = run_trial(config, 0)
        assert np.isfinite(rec.lambda_bar[0]) and np.isnan(rec.lambda_bar[1])
        assert rec.centered_err[0] >= 0
        assert 0 <= rec.u_overlap[0] <= 1 + 1e-8
        assert rec.bulk_top == rec.lambda_emp[1]  # i0 = 1

    def test_truncation_flag_is_small_perturbation(self):
        config = ModelConfig(n=60, m=3000, r=1, taus=(2.0,), seed=8,
                             noise_family="student_t8")
        plain = run_trial(config, 0)
        truncated = run_trial(config, 0, truncate_noise=True)
        diff = abs(plain.lambda_emp[0] - truncated.lambda_emp[0])
        assert diff <= 10.0 / math.sqrt(60 * 3000)

    def test_centered_value_concentrates(self, tau_sweep_reports):
        # tau=1.6: (lambda_1 - 1)/sqrt(beta) within [2.45, 3.45] in >= 90% of trials
        records = tau_sweep_reports[1.6].records
        centered = np.array([(r.lambda_emp[0] - 1) / math.sqrt(SWEEP_BETA)
                             for r in records])
        inside = np.mean((centered >= 2.45) & (centered <= 3.45))
        assert inside >= 0.9


class TestRunExperiment:
    def test_single_trial_aggregates(self):
        config = ModelConfig(n=30, m=600, r=1, taus=(2.0,), seed=9)
        report = run_experiment(config, trials=1)
        rec = report.records[0]
        agg = report.per_spike[0]["u_overlap"]
        assert agg.mean == rec.u_overlap[0]
        assert agg.std == 0.0
        assert agg.min == agg.max == rec.u_overlap[0]

    def test_parallelism_bitwise_identical(self):
        config = ModelConfig(n=30, m=600, r=1, taus=(2.0,), seed=9)
        serial = run_experiment(config, trials=8, parallelism=1)
        threaded = run_experiment(config, trials=8, parallelism=8)
        for name, agg in serial.per_spike[0].items():
            assert agg == threaded.per_spike[0][name]
        assert serial.scalars["bulk_top"] == threaded.scalars["bulk_top"]

    def test_failure_budget(self, monkeypatch):
        real = montecarlo.run_trial

        def flaky(config, trial_index, **kw):
            if trial_index % 3 == 0:
                raise PoleError("synthetic failure")
            return real(config, trial_index, **kw)

        monkeypatch.setattr(montecarlo, "run_trial", flaky)
        config = ModelConfig(n=20, m=200, r=1, taus=(2.0,), seed=9)
        with pytest.raises(ExperimentError):
            run_experiment(config, trials=9)

    def test_small_failure_fraction_tolerated(self, monkeypatch):
        # 2 of 20 failures is within the 10% budget; they are recorded in
        # trial order, and the report is the same at any parallelism.
        real = montecarlo.run_trial

        def flaky(config, trial_index, **kw):
            if trial_index in (2, 5):
                raise PoleError(f"synthetic failure {trial_index}")
            return real(config, trial_index, **kw)

        monkeypatch.setattr(montecarlo, "run_trial", flaky)
        config = ModelConfig(n=20, m=200, r=1, taus=(2.0,), seed=9)
        serial, threaded = (run_experiment(config, trials=20, parallelism=p)
                            for p in (1, 3))
        assert serial.trial_count == 18 and serial.failed_count == 2
        assert [i for i, _ in serial.failures] == [2, 5]
        assert serial.failures == threaded.failures
        assert serial.to_dict() == threaded.to_dict()
        assert ([rec.trial for rec in serial.records]
                == [rec.trial for rec in threaded.records])

    def test_failures_listed_in_report(self, monkeypatch):
        real = montecarlo.run_trial

        def flaky(config, trial_index, **kw):
            if trial_index in (5, 2):
                raise PoleError(f"synthetic failure {trial_index}")
            return real(config, trial_index, **kw)

        monkeypatch.setattr(montecarlo, "run_trial", flaky)
        config = ModelConfig(n=20, m=200, r=1, taus=(2.0,), seed=9)
        for parallelism in (1, 3):
            report = run_experiment(config, trials=20, parallelism=parallelism)
            assert report.to_dict()["failures"] == [
                {"trial": i, "error": f"PoleError('synthetic failure {i}')"} for i in (2, 5)
            ]

    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_unexpected_error_propagates(self, monkeypatch, parallelism):
        started = []

        def broken(config, trial_index, **kw):
            started.append(trial_index)
            if trial_index == 0:
                raise RuntimeError("not a trial error")
            time.sleep(0.05)

        monkeypatch.setattr(montecarlo, "run_trial", broken)
        config = ModelConfig(n=20, m=200, r=1, taus=(2.0,), seed=9)
        with pytest.raises(RuntimeError, match="not a trial error"):
            run_experiment(config, trials=40, parallelism=parallelism)
        assert len(started) < 40  # queued trials were cancelled, not run


class TestSweep:
    def test_power_law_sizes(self):
        config = ModelConfig(n=100, m=1000, r=1, taus=(2.0,), seed=11)
        results = sweep(config, (100, 200, 400), BetaSchedule(c=1.0, alpha=0.5),
                        trials=1)
        assert [c.m for c, _ in results] == [1000, 2829, 8000]

    def test_fixed_beta(self):
        config = ModelConfig(n=100, m=1000, r=1, taus=(2.0,), seed=11)
        results = sweep(config, (50, 100), BetaSchedule(c=0.1), trials=1)
        assert [c.m for c, _ in results] == [500, 1000]

    def test_empty(self):
        config = ModelConfig(n=100, m=1000, r=0, seed=11)
        assert sweep(config, (), BetaSchedule(c=0.1), trials=1) == []

    def test_memory_budget_skips(self):
        config = ModelConfig(n=100, m=1000, r=0, seed=11)
        with pytest.warns(UserWarning):
            results = sweep(config, (50, 4000), BetaSchedule(c=0.1), trials=1,
                            max_entries=10_000_000)
        assert [c.n for c, _ in results] == [50]

    def test_schedule_validation(self):
        with pytest.raises(ValidationError):
            BetaSchedule(c=-1.0)
        with pytest.raises(ValidationError):
            BetaSchedule(c=1.0, alpha=2.0)


class TestStieltjesDeviation:
    def test_self_reference_is_zero(self):
        lam = np.linspace(0.5, 1.5, 40)
        dev, ddev = probe_deviation(
            lam, 0.01, 2.0, 0.05,
            reference=lambda z: empirical_stieltjes(lam, z))
        assert dev == 0.0 and ddev == 0.0

    def test_normalized_deviation_small(self):
        # n=200, beta=0.01, eta=0.5: normalized deviation < 1 for >= 95% of seeds
        config = ModelConfig(n=200, m=20000, r=0, seed=SUITE_SEED)
        devs = [stieltjes_deviation_experiment(config, t).value for t in range(20)]
        assert np.mean(np.array(devs) < 1.0) >= 0.95

    def test_monotone_trend_is_checked_in_acceptance(self):
        # covered by the acceptance suite (criterion 6); here only the scaling
        # plumbing: derivative variant uses the wider normalization.
        config = ModelConfig(n=100, m=1000, r=0, seed=SUITE_SEED)
        dev = stieltjes_deviation_experiment(config, 0, u_offset=1.0)
        assert dev.value > 0 and dev.derivative > 0


class TestProjectionEnergy:
    def test_row_of_noise_gives_full_energy(self):
        from spikedwide.ensemble import sample_noise, stream
        from spikedwide.spectra import right_projection_energy
        x = sample_noise(20, 400, "gaussian", stream(13, "noise"))
        v = x[0] / np.linalg.norm(x[0])
        assert right_projection_energy(x, v) == pytest.approx(1.0, abs=1e-10)

    def test_energy_ratio_concentrates(self):
        config = ModelConfig(n=100, m=10000, r=0, seed=SUITE_SEED)
        ratios = [projection_energy_experiment(config, t).ratio_beta for t in range(40)]
        inside = np.mean([(0.2 <= r <= 5.0) for r in ratios])
        assert inside >= 0.95
        assert abs(np.mean(ratios) - 1.0) < 0.3


class TestFitRate:
    def test_exact_half_power(self):
        ns = (100, 200, 400, 800)
        pairs = [(n, n ** -0.5) for n in ns]
        assert fit_rate(pairs) == pytest.approx(-0.5, abs=1e-12)

    def test_constant(self):
        assert fit_rate([(100, 2.0), (200, 2.0), (400, 2.0)]) == pytest.approx(0.0, abs=1e-12)

    def test_scaled_quarter_power(self):
        pairs = [(n, 3 * n ** -0.25) for n in (50, 100, 500)]
        assert fit_rate(pairs) == pytest.approx(-0.25, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            fit_rate([(100, 1.0), (200, 0.5)])
        with pytest.raises(ValidationError):
            fit_rate([(100, 1.0), (200, -0.5), (400, 0.2)])


class TestPhaseTransitionSweep:
    """Module invariants over the shared tau sweep (n=200, beta=0.005, 50 trials)."""

    def test_subcritical_overlaps_small(self, tau_sweep_reports, critical_overlap_curve):
        # Below tau = 1 the overlap is already small at n=200. At tau = 1 the
        # limit of 0 is approached slowly (mean ~0.4 at n=200), so the
        # critical point is checked as a decay in n, not as a bound at n=200.
        for tau in (0.6, 0.8):
            mean = tau_sweep_reports[tau].per_spike[0]["u_overlap"].mean
            assert mean < 0.25, f"tau={tau}: mean u_overlap {mean:.4f} >= 0.25"
        slope = fit_rate(critical_overlap_curve.items())
        curve = ", ".join(f"n={n}: {mean:.4f}" for n, mean in critical_overlap_curve.items())
        assert slope < 0, f"tau=1.0: mean u_overlap {curve} does not decay in n (slope {slope:.3f})"

    def test_supercritical_overlaps_match_cosine(self, tau_sweep_reports):
        for tau in (1.2, 1.6, 2.0):
            mean = tau_sweep_reports[tau].per_spike[0]["u_overlap"].mean
            assert abs(mean - left_cosine_limit(tau)) <= 0.07

    def test_centered_eigenvalue_across_sweep(self, tau_sweep_reports):
        for tau in SWEEP_TAUS:
            mean = tau_sweep_reports[tau].per_spike[0]["lambda_emp"].mean
            centered = (mean - 1.0) / math.sqrt(SWEEP_BETA)
            assert abs(centered - centered_eigenvalue_limit(tau)) <= 0.25

    def test_right_vector_decorrelation(self, tau_sweep_reports):
        bound = 3.0 * SWEEP_BETA ** 0.25
        for tau in (1.2, 1.6, 2.0):
            assert tau_sweep_reports[tau].per_spike[0]["v_overlap"].mean <= bound

    def test_bulk_eigenvalue_limit(self, tau_sweep_reports):
        for tau in SWEEP_TAUS:
            mean = tau_sweep_reports[tau].scalars["bulk_top"].mean
            assert abs((mean - 1.0) / (2.0 * math.sqrt(SWEEP_BETA)) - 1.0) <= 0.15


class TestRightOverlapScale:
    """The right overlap along the disproportional ladder beta_n = 1/n (m = n^2).

    The paper's headline: the long-side singular vector decorrelates from the
    signal as beta -> 0, on a scale that moves with beta (v^2 ~ sqrt(beta) at
    fixed tau). Each mean v^2 is compared with the fixed-beta reference of
    proportional_reference, and the mean overlap must fall in n. The band
    1 +/- 0.15 is pinned from pilot seeds 1..5 (50 trials each), whose ratios
    were 0.955..1.062, with standard deviations across seeds of 0.039, 0.029
    and 0.011 at n = 50, 100, 200. n = 400 is left out: X alone is 512 MB.
    """

    TAU = 1.6

    def test_ratio_to_reference_and_decay(self, tau_sweep_reports):
        assert SWEEP_BETA == 1.0 / SWEEP_N  # the sweep's n = 200 point is on the ladder
        ratios, means = {}, {}
        for n in (50, 100, SWEEP_N):
            if n == SWEEP_N:
                report = tau_sweep_reports[self.TAU]
            else:
                config = ModelConfig(n=n, m=n * n, r=1, taus=(self.TAU,), seed=SUITE_SEED)
                report = run_experiment(config, trials=SWEEP_TRIALS)
            beta = 1.0 / n
            v = np.array([rec.v_overlap[0] for rec in report.records])
            _, _, v_sq_ref = proportional_reference(self.TAU * beta ** 0.25, beta)
            ratios[n] = np.mean(v ** 2) / v_sq_ref
            means[n] = report.per_spike[0]["v_overlap"].mean
        for n, ratio in ratios.items():
            assert abs(ratio - 1.0) <= 0.15, f"n={n}: mean v^2 / v^2_ref = {ratio:.4f}"
        slope = fit_rate(means.items())
        assert slope < 0, f"mean v_overlap {means} does not decay in n (slope {slope:.3f})"


class TestCsvOutput:
    def test_round_trip(self, tmp_path):
        config = ModelConfig(n=20, m=400, r=2, taus=(2.5, 0.8), seed=21)
        report = run_experiment(config, trials=3)
        path = tmp_path / "trials.csv"
        write_trials_csv(report.records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(montecarlo.CSV_COLUMNS)
        assert len(lines) == 1 + 3 * 2  # header + trials * spikes
        # floats survive the round trip exactly
        first = lines[1].split(",")
        lam = float(first[montecarlo.CSV_COLUMNS.index("lambda_emp")])
        assert lam == report.records[0].lambda_emp[0]
