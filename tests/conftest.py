"""Shared fixtures. The heavy tau sweep is computed once per session and
reused by the montecarlo property tests and the acceptance suite."""

import os

import pytest

from spikedwide import ModelConfig, run_experiment, run_experiments

# One experiment seed for every stochastic check in the suite, fixed up front.
SUITE_SEED = 20260808

SWEEP_N = 200
SWEEP_BETA = 0.005
SWEEP_TAUS = (0.6, 0.8, 1.0, 1.2, 1.6, 2.0)
SWEEP_TRIALS = 50
CRITICAL_NS = (25, 50, 100, SWEEP_N)
# Trials run on one BLAS thread each, so a worker per core changes no result.
CORES = len(os.sched_getaffinity(0))


@pytest.fixture(scope="session")
def tau_sweep_reports():
    """{tau: ExperimentReport} for the phase-transition sweep at n=200, beta=0.005."""
    m = round(SWEEP_N / SWEEP_BETA)
    configs = [ModelConfig(n=SWEEP_N, m=m, r=1, taus=(tau,), seed=SUITE_SEED)
               for tau in SWEEP_TAUS]
    # Each trial's matrix is drawn once and serves every tau.
    reports = run_experiments(configs, trials=SWEEP_TRIALS, parallelism=CORES)
    return dict(zip(SWEEP_TAUS, reports))


@pytest.fixture(scope="session")
def critical_overlap_curve(tau_sweep_reports):
    """{n: mean u_overlap} at tau = 1 for n in CRITICAL_NS, beta = SWEEP_BETA.

    The paper's critical-point claim is a limit: the left cosine tends to 0 as
    n grows. At n=200 the mean overlap is still ~0.4 and it falls only slowly,
    so the claim is checked as a decay of this curve in n, not as a bound at
    one size. The n=200 point is reused from the tau sweep.
    """
    curve = {}
    for n in CRITICAL_NS:
        if n == SWEEP_N:
            report = tau_sweep_reports[1.0]
        else:
            config = ModelConfig(n=n, m=round(n / SWEEP_BETA), r=1, taus=(1.0,),
                                 seed=SUITE_SEED)
            report = run_experiment(config, trials=SWEEP_TRIALS, parallelism=CORES)
        curve[n] = report.per_spike[0]["u_overlap"].mean
    return curve
