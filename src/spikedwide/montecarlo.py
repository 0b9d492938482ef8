"""Monte Carlo harness: trials, aggregation, schedules, and rate experiments.

Trials are independent tasks keyed by (experiment seed, trial index); records
are aggregated in trial order, so reports are bitwise identical for any
parallelism. CSV output is tidy: one row per (trial, spike).
"""

import csv
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import mp
from .ensemble import assemble_spiked, sample_model, sample_noise, stream, truncate_normalize
from .errors import (
    CertificationError,
    DomainError,
    ExperimentError,
    NumericalError,
    PoleError,
    ValidationError,
)
from .predictions import above_threshold_count, spike_eigenvalue_location
from .spectra import _GramKernel, empirical_stieltjes

__all__ = [
    "TrialRecord",
    "Aggregate",
    "ExperimentReport",
    "BetaSchedule",
    "run_trial",
    "run_experiment",
    "sweep",
    "stieltjes_deviation_experiment",
    "projection_energy_experiment",
    "fit_rate",
    "write_trials_csv",
]

#: Errors a single trial may raise without failing the whole experiment.
TRIAL_ERRORS = (
    np.linalg.LinAlgError,
    FloatingPointError,
    PoleError,
    NumericalError,
    CertificationError,
    DomainError,
)

#: Stieltjes probe discs are centred at 1 + (2 + PROBE_ETA) sqrt(beta), past the bulk edge.
PROBE_ETA = 0.5

#: The per-spike fields of TrialRecord, in CSV column order.
_PER_SPIKE_FIELDS = (
    "lambda_emp", "lambda_bar", "centered_err",
    "u_overlap", "u_cross_max", "v_overlap", "v_cross_max",
)
#: Per-trial scalars; the last two are the optional measurements (None when off).
_SCALAR_FIELDS = ("bulk_top", "stieltjes_dev", "proj_energy")

CSV_COLUMNS = ("n", "m", "beta", "tau", "trial") + _PER_SPIKE_FIELDS + ("bulk_top",)


@dataclass(frozen=True)
class TrialRecord:
    """Per-trial measurements; per-spike arrays are aligned with config.taus."""

    n: int
    m: int
    beta: float
    taus: tuple
    seed: int
    trial: int
    lambda_emp: np.ndarray    # top-r eigenvalues of the observed Gram matrix
    lambda_bar: np.ndarray    # predicted outlier locations (nan if subcritical)
    centered_err: np.ndarray  # |lambda_emp - lambda_bar| / sqrt(beta)
    u_overlap: np.ndarray
    u_cross_max: np.ndarray
    v_overlap: np.ndarray
    v_cross_max: np.ndarray
    bulk_top: float           # first non-spike eigenvalue
    stieltjes_dev: float = None
    proj_energy: float = None

    def rows(self):
        """Tidy CSV rows, one per spike."""
        return [
            {"n": self.n, "m": self.m, "beta": self.beta, "tau": tau, "trial": self.trial,
             **{name: getattr(self, name)[i] for name in _PER_SPIKE_FIELDS},
             "bulk_top": self.bulk_top}
            for i, tau in enumerate(self.taus)
        ]


class Aggregate(NamedTuple):
    mean: float
    std: float
    min: float
    max: float


def _aggregate(values):
    arr = np.asarray(values, dtype=float)
    return Aggregate(float(arr.mean()), float(arr.std()),
                     float(arr.min()), float(arr.max()))


@dataclass(frozen=True)
class ExperimentReport:
    """Order-insensitive aggregates over the successful trials."""

    config: object
    schedule: str
    trial_count: int
    failed_count: int
    per_spike: list            # one {quantity: Aggregate} dict per spike
    scalars: dict              # bulk_top and optional measurements
    records: list = field(repr=False, default_factory=list)
    failures: list = field(repr=False, default_factory=list)  # (trial, repr) pairs

    def to_dict(self):
        return {
            "config": self.config.to_dict(),
            "schedule": self.schedule,
            "trial_count": self.trial_count,
            "failed_count": self.failed_count,
            "per_spike": self.per_spike,
            "scalars": self.scalars,
            "failures": [{"trial": i, "error": error} for i, error in self.failures],
        }


def run_trial(config, trial_index, measure_stieltjes=False,
              measure_projection=False, truncate_noise=False):
    """One full measurement pass; deterministic in (config.seed, trial_index).

    Spikes are matched to empirical triples by rank order. Subcritical spikes
    get nan predicted locations. Optional fields measure the noise-only
    Stieltjes deviation and right-projection energy on the same trial streams.
    truncate_noise reruns the draw with truncated-and-normalized noise entries
    (a perturbation that moves eigenvalues by at most O(1/sqrt(nm))).
    """
    sample = sample_model(config, trial_index)
    if truncate_noise:
        sample = assemble_spiked(sample.U, sample.V, sample.theta,
                                 truncate_normalize(sample.X), config=config)
    # One set of sufficient statistics serves the spectrum, the overlaps and
    # both noise measurements.
    kernel = _GramKernel.of(sample)
    beta = sample.beta
    sqrt_beta = math.sqrt(beta)
    r = sample.r
    i0 = above_threshold_count(config.taus) if r else 0
    eigenvalues = kernel.eigenvalues

    if r:
        lambda_emp = eigenvalues[:r].copy()
        lam_bar = np.full(r, np.nan)
        for i in range(i0):
            lam_bar[i] = spike_eigenvalue_location(sample.theta[i], beta)
        centered_err = np.abs(lambda_emp - lam_bar) / sqrt_beta
        # Cosines against unit-normalized signal vectors, so overlaps stay in
        # [0, 1] even when iid signal columns have norm != 1 at finite n.
        u_ov, v_ov = (np.abs(c) for c in kernel.signal_cosines(r))
        u_overlap = np.diag(u_ov).copy()
        v_overlap = np.diag(v_ov).copy()
        u_cross = _cross_max(u_ov)
        v_cross = _cross_max(v_ov)
    else:
        lambda_emp = lam_bar = centered_err = np.zeros(0)
        u_overlap = v_overlap = u_cross = v_cross = np.zeros(0)

    bulk_top = float(eigenvalues[i0])

    stieltjes_dev = None
    if measure_stieltjes:
        stieltjes_dev = _stieltjes_deviation(kernel).value

    proj_energy = None
    if measure_projection:
        proj_energy = _projection_energy(kernel, config.seed, trial_index)

    return TrialRecord(
        n=sample.n, m=sample.m, beta=beta, taus=config.taus,
        seed=config.seed, trial=trial_index,
        lambda_emp=lambda_emp, lambda_bar=lam_bar, centered_err=centered_err,
        u_overlap=u_overlap, u_cross_max=u_cross,
        v_overlap=v_overlap, v_cross_max=v_cross,
        bulk_top=bulk_top, stieltjes_dev=stieltjes_dev, proj_energy=proj_energy,
    )


def _cross_max(ov):
    # ov[j, i] = |<signal_j, empirical_i>|; cross term for spike i is max over j != i.
    r = ov.shape[0]
    if r == 1:
        return np.zeros(1)
    masked = ov.copy()
    np.fill_diagonal(masked, -np.inf)
    return masked.max(axis=0)


def run_experiment(config, trials, parallelism=1, schedule="fixed",
                   **trial_kwargs):
    """Run `trials` independent trials and aggregate.

    Trials run on a pool of `parallelism` threads (one thread at 1), and
    aggregation consumes records in trial order whatever the completion
    order, so reports are identical for any parallelism. Individual trials
    may fail with a numerical error; more than 10% failures aborts.
    """
    if trials < 1:
        raise ValidationError("need at least one trial")
    if parallelism < 1:
        raise ValidationError("parallelism must be >= 1")

    def work(i):
        try:
            return run_trial(config, i, **trial_kwargs), None
        except TRIAL_ERRORS as exc:
            return None, (i, repr(exc))

    pool = ThreadPoolExecutor(max_workers=parallelism)
    try:
        outcomes = list(pool.map(work, range(trials)))
    finally:
        # Any other error propagates at once; trials still queued are cancelled.
        pool.shutdown(cancel_futures=True)
    good = [rec for rec, _ in outcomes if rec is not None]
    failures = [failure for _, failure in outcomes if failure is not None]
    if len(failures) > 0.1 * trials or not good:
        raise ExperimentError(
            f"{len(failures)}/{trials} trials failed: {failures[:3]}"
        )

    per_spike = [
        {name: _aggregate([getattr(rec, name)[i] for rec in good])
         for name in _PER_SPIKE_FIELDS}
        for i in range(config.r)
    ]
    scalars = {
        name: _aggregate([getattr(rec, name) for rec in good])
        for name in _SCALAR_FIELDS if getattr(good[0], name) is not None
    }

    return ExperimentReport(
        config=config, schedule=schedule,
        trial_count=len(good), failed_count=len(failures),
        per_spike=per_spike, scalars=scalars,
        records=good, failures=failures,
    )


@dataclass(frozen=True)
class BetaSchedule:
    """Aspect-ratio schedule beta_n = c * n^(-alpha); alpha = 0 keeps beta fixed."""

    c: float
    alpha: float = 0.0

    def __post_init__(self):
        if not self.c > 0:
            raise ValidationError("schedule constant c must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError("alpha must lie in [0, 1]")

    def beta_at(self, n):
        return self.c * float(n) ** -self.alpha

    def describe(self):
        if self.alpha == 0.0:
            return f"beta fixed at {self.c:g}"
        return f"beta_n = {self.c:g} * n^-{self.alpha:g}"


def sweep(base_config, n_values, beta_schedule, trials, parallelism=1,
          max_entries=200_000_000, **trial_kwargs):
    """One experiment per n with m_n = round(n / beta_n); returns (config, report) pairs.

    Rows whose matrices would exceed the memory budget are skipped with a
    warning instead of failing the sweep.
    """
    results = []
    for n in n_values:
        beta = beta_schedule.beta_at(n)
        if not 0.0 < beta <= 1.0:
            raise ValidationError(f"schedule gives beta={beta} at n={n}")
        m = math.ceil(n / beta)  # never narrower than the schedule asks
        if n * m > max_entries:
            warnings.warn(f"skipping n={n}: {n}x{m} exceeds the memory budget")
            continue
        config = base_config.replace(n=int(n), m=int(m))
        report = run_experiment(config, trials, parallelism,
                                schedule=beta_schedule.describe(), **trial_kwargs)
        results.append((config, report))
    return results


def probe_deviation(eigenvalues, beta, center, radius, reference=None):
    """(sup |s_emp - s_ref|, sup |s'_emp - s'_ref|) over a disc probe set.

    The uncountable sup is realized on a reproducible probe set: the disc
    center plus 16 equally spaced boundary points. Probes that collide with an
    eigenvalue are nudged by 1e-3 * radius, at most 3 times.
    """
    if reference is None:
        reference = lambda z: mp.stieltjes(z, beta)
    probes = [complex(center)]
    for k in range(16):
        angle = 2 * math.pi * k / 16
        probes.append(center + radius * complex(math.cos(angle), math.sin(angle)))
    dev = ddev = 0.0
    for z in probes:
        for attempt in range(4):
            try:
                s_emp, ds_emp = empirical_stieltjes(eigenvalues, z)
                break
            except PoleError:
                if attempt == 3:
                    raise
                z = z + 1e-3 * radius
        s_ref, ds_ref = reference(z)
        dev = max(dev, abs(s_emp - s_ref))
        ddev = max(ddev, abs(ds_emp - ds_ref))
    return dev, ddev


class StieltjesDeviation(NamedTuple):
    value: float       # sup|s_n - s_mp| * sqrt(beta), disc radius n^(-1/4) sqrt(beta)
    derivative: float  # sup|s_n' - s_mp'| * beta, disc radius n^(-1/8) sqrt(beta)


class ProjectionEnergy(NamedTuple):
    energy: float
    ratio_beta: float      # energy / beta (mean should sit near 1)
    ratio_beta_log: float  # energy / (beta * log n)


# Noise-only measurements on a _GramKernel, shared by run_trial and the rate
# experiments: both read the kernel's one eigh of (1/m) X X'.
def _noise_kernel(config, trial_index):
    return _GramKernel(sample_noise(config.n, config.m, config.noise_family,
                                    stream(config.seed, "noise", trial_index)))


def _stieltjes_deviation(kernel, u_offset=0.0):
    n, m = kernel.n, kernel.m
    beta = n / m
    sqrt_beta = math.sqrt(beta)
    center = 1.0 + (2.0 + PROBE_ETA) * sqrt_beta + u_offset * sqrt_beta
    eigs = kernel.noise_eigenvalues
    dev, _ = probe_deviation(eigs, beta, center, n ** -0.25 * sqrt_beta)
    _, ddev = probe_deviation(eigs, beta, center, n ** -0.125 * sqrt_beta)
    return StieltjesDeviation(dev * sqrt_beta, ddev * beta)


def _projection_energy(kernel, seed, trial_index):
    m = kernel.m
    v = stream(seed, "probe", trial_index).standard_normal(m)
    return kernel.projection_energy(v / math.sqrt(m))


def stieltjes_deviation_experiment(config, trial_index=0, u_offset=0.0):
    """Normalized sup-deviations of the noise Stieltjes transform and its derivative.

    Probes one pure-noise draw, with one eigendecomposition, around
    u_n = 1 + (2 + PROBE_ETA + u_offset) sqrt(beta); see StieltjesDeviation
    for the radii and scalings. Both read as "should decay like n^(-ell)".
    """
    return _stieltjes_deviation(_noise_kernel(config, trial_index), u_offset)


def projection_energy_experiment(config, trial_index=0):
    """Energy of an independent signal vector inside the noise row space.

    Draws pure noise X and v with i.i.d. N(0, 1/m) entries, then measures
    ‖W'v‖^2 against its expected size beta and the beta*log(n) envelope.
    """
    beta = config.n / config.m
    energy = _projection_energy(_noise_kernel(config, trial_index), config.seed, trial_index)
    return ProjectionEnergy(energy, energy / beta, energy / (beta * math.log(config.n)))


def fit_rate(pairs):
    """Least-squares slope of log(value) against log(n)."""
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValidationError("need at least 3 (n, value) points")
    ns = np.array([float(p[0]) for p in pairs])
    vals = np.array([float(p[1]) for p in pairs])
    if np.any(vals <= 0) or np.any(ns <= 0):
        raise ValidationError("n and value must be positive for a log-log fit")
    slope, _ = np.polyfit(np.log(ns), np.log(vals), 1)
    return float(slope)


def _fmt(value):
    if isinstance(value, float):
        return repr(float(value))  # builtin repr: shortest exact round trip
    return str(value)


def write_trials_csv(records, path):
    """Tidy CSV: one row per (trial, spike), with shortest round-trip floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            for row in rec.rows():
                writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
