"""The four workloads: memory forecast, set-up, one job, and the job's checks.

A job is what a user waits on: one experiment, one CLI verb. Each workload
repeats the same job (same seed, same inputs) in a closed loop, so every
job's output files must hash identically within a run. Jobs reach the
library only through module attributes looked up at call time, so the
tracer's wrappers see them.

This module imports no numpy or spikedwide at import time: the parent
process reads the shapes for its memory forecast without loading either.
"""

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

MB = float(2 ** 20)

#: Resident memory of an interpreter with numpy, OpenBLAS and spikedwide
#: loaded, before any workload array exists (34 MB measured, rounded up).
BASE_MB = 40.0


def forecast_mb(n, m, arrays, workers=1):
    """Peak resident MB forecast: BASE_MB plus, per worker, `arrays` float64
    n x m arrays alive at once."""
    return BASE_MB + workers * arrays * n * m * 8 / MB


@dataclass
class Outcome:
    """Result of checking one job's output."""

    units: int
    failed: int
    files: list
    ref_err: float
    problems: list = field(default_factory=list)


def _quiet_cli(sw, argv):
    """Run spikedwide.cli.main with its stdout captured; returns (code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sw.cli.main(argv)
    return code, buf.getvalue()


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """Shape of the largest matrix (X, n x m), how many such arrays one
    worker holds at its peak, and how many workers run at once."""

    N = M = ARRAYS = 0

    def workers(self, nproc):
        return 1

    def forecast_mb(self, nproc):
        return forecast_mb(self.N, self.M, self.ARRAYS, self.workers(nproc))

    def x_mb(self):
        return self.N * self.M * 8 / MB


class TrialsMeasured(Workload):
    """run_experiment at the acceptance suite's beta = 0.005, measurements on."""

    unit = "trial"
    ref_unit = "sqrt_beta"
    N, M, TAUS, TRIALS = 200, 40000, (2.0, 1.2), 2
    UNITS = TRIALS
    ARRAYS = 3   # X, X_tilde and one transient n x m product while X_tilde is formed

    def setup(self, sw, seed, out_dir):
        self.sw = sw
        self.config = sw.ensemble.ModelConfig(
            n=self.N, m=self.M, r=len(self.TAUS), taus=self.TAUS,
            noise_family="gaussian", signal_family="gaussian_iid", seed=seed)
        self.path = out_dir / "trials.csv"

    def job(self):
        mc = self.sw.montecarlo
        report = mc.run_experiment(self.config, self.TRIALS, parallelism=1,
                                   measure_stieltjes=True, measure_projection=True)
        mc.write_trials_csv(report.records, self.path)
        return report

    def check(self, report):
        problems = []
        if report.failed_count:
            problems.append(f"{report.failed_count} failed trials: {report.failures[:3]}")
        for rec in report.records:
            if not (math.isfinite(rec.stieltjes_dev) and math.isfinite(rec.proj_energy)):
                problems.append(f"trial {rec.trial}: non-finite measurement")
        rows = _csv_rows(self.path)
        if len(rows) != self.TRIALS * len(self.TAUS):
            problems.append(f"trials.csv has {len(rows)} rows")
        errs = [rec.centered_err[0] for rec in report.records]
        ref = sum(errs) / len(errs) if errs else math.nan
        failed = self.UNITS if problems else self.UNITS - report.trial_count
        return Outcome(self.UNITS, failed, [self.path], ref, problems)


class SweepParallel(Workload):
    """`spikedwide sweep` with its defaults and --parallelism set to nproc."""

    unit = "trial"
    ref_unit = "sqrt_beta"
    N_VALUES, TRIALS = (100, 200, 400), 10   # the CLI defaults
    UNITS = len(N_VALUES) * TRIALS
    N = max(N_VALUES)
    M = math.ceil(N / N ** -0.5)   # beta_c = 1, beta_alpha = 0.5
    ARRAYS = 3   # per worker thread, as in trials_measured

    def workers(self, nproc):
        return min(nproc, self.TRIALS)

    def setup(self, sw, seed, out_dir):
        self.sw = sw
        self.out_dir = out_dir
        self.parallelism = len(os.sched_getaffinity(0))
        self.argv = ["sweep", "--parallelism", str(self.parallelism),
                     "--seed", str(seed), "--out-dir", str(out_dir)]

    def job(self):
        return _quiet_cli(self.sw, self.argv)

    def check(self, result):
        code, _ = result
        expected = self.UNITS
        path = self.out_dir / "sweep.csv"
        if code != 0:
            return Outcome(expected, expected, [path], math.nan, [f"exit code {code}"])
        problems = []
        with open(self.out_dir / "sweep_reports.json") as fh:
            reports = json.load(fh)
        done = sum(r["trial_count"] for r in reports)
        if len(reports) != len(self.N_VALUES) or done != expected:
            problems.append(f"{len(reports)} sizes, {done} trials")
        rows = _csv_rows(path)
        if len(rows) != expected:
            problems.append(f"sweep.csv has {len(rows)} rows")
        top = [float(r["centered_err"]) for r in rows if int(r["n"]) == max(self.N_VALUES)]
        ref = sum(top) / len(top) if top else math.nan
        failed = expected if problems else expected - done
        return Outcome(expected, failed, [path], ref, problems)


class VerifyCertify(Workload):
    """`spikedwide verify`: identity suite plus winding certificates per draw."""

    unit = "draw"
    ref_unit = "sqrt_beta"
    N, M, TAUS, DRAWS = 200, 20000, (3.0, 2.5, 2.0, 1.6), 3
    UNITS = DRAWS
    # At the default ell = 0.2 the contour radius n^-ell sqrt(beta) is 0.35
    # sqrt(beta) at n = 200, and the tau = 3 outlier leaves it in about 3% of
    # draws (winding 0). ell = 0.1 widens it to 0.59 sqrt(beta), 3.7 sd of
    # that outlier, while the tau = 2 and tau = 1.6 contours, 1.30 sqrt(beta)
    # apart, stay disjoint. The work per certificate (256 nodes) is unchanged.
    ELL = 0.1
    # The previous draw's X and X_tilde stay alive while the next draw holds
    # its int64 sample, its float copy and the X_tilde product; one more for
    # allocator slack (208 MB measured when traced).
    ARRAYS = 6

    def setup(self, sw, seed, out_dir):
        self.sw = sw
        self.out_dir = out_dir
        self.argv = ["verify", "--n", str(self.N), "--m", str(self.M),
                     "--taus", ",".join(str(t) for t in self.TAUS),
                     "--noise-family", "rademacher", "--signal-family", "orthonormal",
                     "--ell", str(self.ELL), "--seed", str(seed), "--out-dir", str(out_dir)]

    def job(self):
        return _quiet_cli(self.sw, self.argv)

    def check(self, result):
        code, text = result
        path = self.out_dir / "certificates.json"
        if code != 0:
            return Outcome(self.UNITS, self.UNITS, [path], math.nan, [f"exit code {code}"])
        problems = []
        lines = text.splitlines()
        identities = [ln for ln in lines if ln.startswith("PASS") and "certificate" not in ln]
        if len(identities) != 4 or any(ln.startswith("FAIL") for ln in lines):
            problems.append("identity suite did not pass")
        with open(path) as fh:
            rows = json.load(fh)
        if len(rows) != self.DRAWS * len(self.TAUS):
            problems.append(f"{len(rows)} certificates")
        bad_draws = {r["draw"] for r in rows if r["winding"] != 1 or not r["certified"]}
        ref = max((r["centered_gap"] for r in rows), default=math.nan)
        failed = self.UNITS if problems else len(bad_draws)
        return Outcome(self.UNITS, failed, [path], ref, problems)


class EstimateCsv(Workload):
    """`spikedwide estimate` on a tall CSV holding a planted two-spike draw."""

    unit = "matrix"
    ref_unit = "tau"
    N, M, TAUS = 100, 20000, (3.0, 1.6)
    UNITS = 1
    # Set-up holds X and X_tilde; parsing holds the result, its chunks and
    # the contiguous copy the Gram of the transposed view makes.
    ARRAYS = 4

    def setup(self, sw, seed, out_dir):
        self.sw = sw
        self.out_dir = out_dir
        # Orthonormal signal vectors keep theta exact; with i.i.d. ones the
        # column norms move the tau = 1.6 outlier under the detection line
        # in about 6% of draws.
        config = sw.ensemble.ModelConfig(
            n=self.N, m=self.M, r=len(self.TAUS), taus=self.TAUS,
            signal_family="orthonormal", seed=seed)
        sample = sw.ensemble.sample_model(config)
        path = out_dir / "planted.csv"
        sw.io.write_matrix(path, sample.X_tilde.T)
        self.argv = ["estimate", "--input", str(path), "--out-dir", str(out_dir)]

    def job(self):
        return _quiet_cli(self.sw, self.argv)

    def check(self, result):
        code, _ = result
        path = self.out_dir / "report.json"
        if code != 0:
            return Outcome(1, 1, [path], math.nan, [f"exit code {code}"])
        with open(path) as fh:
            report = json.load(fh)
        problems = []
        found = report["outliers"]
        if len(found) != len(self.TAUS):
            problems.append(f"{len(found)} outliers found, {len(self.TAUS)} planted")
        if not report["transposed"]:
            problems.append("tall input was not transposed")
        ref = max((abs(o["tau_hat"] - t) for o, t in zip(found, self.TAUS)), default=math.nan)
        return Outcome(1, 1 if problems else 0, [path], ref, problems)


WORKLOADS = {
    "trials_measured": TrialsMeasured,
    "sweep_parallel": SweepParallel,
    "verify_certify": VerifyCertify,
    "estimate_csv": EstimateCsv,
}
