"""Monte Carlo harness: trials, aggregation, schedules, and rate fits.

Trials are independent tasks keyed by (experiment seed, trial index). They
run on _runtime's pinned-BLAS pool, sized by trial_bytes, the one forecast of
a trial's peak memory, and records are aggregated in trial order, so reports
are bitwise identical for any parallelism and any core count. The noise-only
rate measurements (Stieltjes deviation, projection energy) are optional
fields of the same trial. CSV output is tidy: one row per (trial, spike).

The streams are keyed by (seed, purpose, trial), never by the strengths, so
configs that differ only in taus and eps draw the same matrices.
run_experiments runs them on one draw per trial: the draw, its kernel
(spectra._GramKernel, the one seam a trial reads) and the noise-only fields
are computed once and shared; the observed spectrum and every other field
of the record are computed per strength. run_experiment and run_trial are
its one-config case.
"""

import csv
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import _runtime, mp
from .ensemble import (
    _draw_bytes,
    calibrate_signal_strengths,
    sample_model,
    stream,
)
from .errors import NUMERICAL_ERRORS, DomainError, ExperimentError, PoleError, ValidationError
from .predictions import outlier_locations
from .spectra import empirical_stieltjes

__all__ = [
    "TrialRecord",
    "Aggregate",
    "ExperimentReport",
    "BetaSchedule",
    "run_trial",
    "trial_bytes",
    "run_experiment",
    "run_experiments",
    "sweep",
    "fit_rate",
    "write_trials_csv",
]

#: Errors a single trial may raise without failing the whole experiment.
TRIAL_ERRORS = NUMERICAL_ERRORS + (DomainError,)

#: sweep skips sizes with more than MAX_ENTRIES noise entries (n * m).
MAX_ENTRIES = 200_000_000

#: Stieltjes probe discs are centred at 1 + (2 + PROBE_ETA) sqrt(beta), past the bulk edge.
PROBE_ETA = 0.5

#: The per-spike fields of TrialRecord, in CSV column order.
_PER_SPIKE_FIELDS = (
    "lambda_emp", "lambda_bar", "centered_err",
    "u_overlap", "u_cross_max", "v_overlap", "v_cross_max",
)
#: Per-trial scalars; all but bulk_top are optional measurements (None when off).
_SCALAR_FIELDS = ("bulk_top", "stieltjes_dev", "stieltjes_ddev", "proj_energy")

CSV_COLUMNS = ("n", "m", "beta", "tau", "trial") + _PER_SPIKE_FIELDS + ("bulk_top",)

#: Python objects and small arrays of one trial (about 3 KB under
#: tracemalloc), rounded up.
_TRIAL_OVERHEAD = 16 * 1024


def trial_bytes(n, m, r, noise_family):
    """Forecast of the peak bytes one run_trial holds, measurements on.

    The terms follow tracemalloc on small shapes: the signal vectors U and V;
    then the larger of two phases, each holding the n x m noise X once: the
    draw (ensemble._draw_bytes) and the Gram-once kernel (four n x n arrays
    at the observed eigh, and the m-vector probe of the projection
    measurement with its scaled copy).
    """
    kernel = 8 * (n * m + (4 if r else 3) * n * n + 2 * m)
    return (8 * (n + m) * r + max(_draw_bytes(n, m, noise_family), kernel)
            + _TRIAL_OVERHEAD)


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
    stieltjes_dev: float = None   # sup|s_n - s_mp| sqrt(beta), radius n^(-1/4) sqrt(beta)
    stieltjes_ddev: float = None  # sup|s_n' - s_mp'| beta, radius n^(-1/8) sqrt(beta)
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


@_runtime.one_blas_thread()
def run_trial(config, trial_index, measure_stieltjes=False,
              measure_projection=False, u_offset=0.0):
    """One full measurement pass; deterministic in (config.seed, trial_index).

    Spikes are matched to empirical triples by rank order. lambda_bar is
    outlier_locations of the nominal strengths theta (nan at or below the
    threshold), and bulk_top the eigenvalue past the non-nan ones. The
    optional measurements read the noise X alone, on the trial's own streams.
    measure_stieltjes sets stieltjes_dev and stieltjes_ddev, the normalized
    sup-deviations of the noise Stieltjes transform and its derivative from
    Marchenko-Pastur on probe discs centred at
    u_n = 1 + (2 + PROBE_ETA + u_offset) sqrt(beta); both should decay like
    n^(-ell). measure_projection sets proj_energy, the energy of an
    independent v with i.i.d. N(0, 1/m) entries inside the row space of X,
    of expected size beta. The one-config case of run_experiments' trial.
    """
    return _record(config, trial_index, *_draw_trial(
        config, trial_index, measure_stieltjes, measure_projection, u_offset))


def _draw_trial(config, trial_index, measure_stieltjes=False,
                measure_projection=False, u_offset=0.0):
    """(kernel, noise) of one trial's draw, shared by every strength.

    kernel is the sample's _kernel (see spectra._GramKernel) and noise maps
    the noise-only fields to their values (None when off); the sample dies
    here. The noise eigh is computed here whenever the noise-only fields or
    a rank-0 spectrum read it, so each strength's copy of the kernel
    inherits it.
    """
    sample = sample_model(config, trial_index)
    if measure_projection:
        # Its own gemv, not a column of X V, so a trial and its rank-0 twin
        # read the same proj_energy bits.
        v = stream(config.seed, "probe", trial_index).standard_normal(config.m)
        xv = sample.X @ (v / math.sqrt(config.m))
    kernel = sample._kernel
    del sample
    noise = dict.fromkeys(("stieltjes_dev", "stieltjes_ddev", "proj_energy"))
    if measure_stieltjes:
        noise["stieltjes_dev"], noise["stieltjes_ddev"] = _stieltjes_deviation(
            kernel, u_offset)
    if measure_projection:
        noise["proj_energy"] = kernel.projection_energy(xv)
    if not kernel.r:
        kernel.noise_eigh  # the observed eigh of every strength
    return kernel, noise


def _record(config, trial_index, kernel, noise):
    """config's TrialRecord from _draw_trial's (kernel, noise)."""
    kernel = kernel.with_strengths(
        calibrate_signal_strengths(config.taus, config.eps, config.beta))
    n, m, r, beta = kernel.n, kernel.m, kernel.r, kernel.beta
    lam_bar = outlier_locations(kernel.theta, beta)
    i0 = int(np.count_nonzero(~np.isnan(lam_bar)))
    eigenvalues = kernel.eigenvalues
    lambda_emp = eigenvalues[:r].copy()
    centered_err = np.abs(lambda_emp - lam_bar) / math.sqrt(beta)

    if r:
        # Cosines against unit-normalized signal vectors, so overlaps stay in
        # [0, 1] even when iid signal columns have norm != 1 at finite n.
        u_ov, v_ov = (np.abs(c) for c in kernel.signal_cosines(r))
        u_overlap = np.diag(u_ov).copy()
        v_overlap = np.diag(v_ov).copy()
        u_cross = _cross_max(u_ov)
        v_cross = _cross_max(v_ov)
    else:
        u_overlap = v_overlap = u_cross = v_cross = np.zeros(0)

    return TrialRecord(
        n=n, m=m, beta=beta, taus=config.taus,
        seed=config.seed, trial=trial_index,
        lambda_emp=lambda_emp, lambda_bar=lam_bar, centered_err=centered_err,
        u_overlap=u_overlap, u_cross_max=u_cross,
        v_overlap=v_overlap, v_cross_max=v_cross,
        bulk_top=float(eigenvalues[i0]), **noise,
    )


def _cross_max(ov):
    # ov[j, i] = |<signal_j, empirical_i>|; cross term for spike i is max over j != i.
    r = ov.shape[0]
    if r == 1:
        return np.zeros(1)
    masked = ov.copy()
    np.fill_diagonal(masked, -np.inf)
    return masked.max(axis=0)


#: The ModelConfig fields that decide a trial's draw: all but taus and eps.
_DRAW_FIELDS = ("n", "m", "r", "noise_family", "signal_family", "seed")


def run_experiments(configs, trials, parallelism=0, **trial_kwargs):
    """Run `trials` independent trials of each config; reports in config order.

    The configs may differ in taus and eps only, so trial i draws the same
    X, U and V for all of them: each trial is drawn once and builds one
    record per config. Each report equals the config's own run_experiment;
    its schedule is "fixed". trial_kwargs are run_trial's measurement options.

    Trials run on _runtime.pinned_map, the pool `verify` draws share, with
    at most `parallelism` threads (0, the default, sets no cap); records are
    consumed in trial order, so reports are identical for any parallelism.
    Individual trials may fail with one of TRIAL_ERRORS,
    at one strength or, in the draw and the noise-only fields, at all of
    them; more than 10% failures of one config aborts with the error of the
    first such config. Any other error is raised, and no trial above it
    starts.
    """
    configs = list(configs)
    if not configs:
        raise ValidationError("need at least one config")
    base = configs[0]
    for config in configs:
        differ = [name for name in _DRAW_FIELDS
                  if getattr(config, name) != getattr(base, name)]
        if differ:
            raise ValidationError(
                f"configs sharing draws may differ in taus and eps only, not {differ}")
    if trials < 1:
        raise ValidationError("need at least one trial")
    if parallelism < 0:
        raise ValidationError("parallelism must be >= 0 (0 sets no cap)")

    def work(i):
        def attempt(build, *args, **kwargs):
            try:
                return build(*args, **kwargs), None
            except TRIAL_ERRORS as exc:
                return None, (i, repr(exc))

        shared, failure = attempt(_draw_trial, base, i, **trial_kwargs)
        if failure is not None:
            return [(None, failure)] * len(configs)
        return [attempt(_record, config, i, *shared) for config in configs]

    per_trial = list(_runtime.pinned_map(work, trials, parallelism, trial_bytes(
        base.n, base.m, base.r, base.noise_family)))
    return [_report(config, trials, outcomes)
            for config, outcomes in zip(configs, zip(*per_trial))]


def run_experiment(config, trials, parallelism=0, **trial_kwargs):
    """Run `trials` independent trials of config and aggregate: the
    one-config case of run_experiments."""
    return run_experiments([config], trials, parallelism, **trial_kwargs)[0]


def _report(config, trials, outcomes):
    """Aggregate one config's (record, failure) outcomes in trial order."""
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
        config=config, schedule="fixed",
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


def sweep(base_config, n_values, beta_schedule, trials, parallelism=0):
    """One experiment per n with m_n = ceil(n / beta_n); returns (config, report) pairs.

    Every size is checked before any experiment runs: n < 1 or a beta_n
    outside (0, 1] raises ValidationError, and sizes with n * m > MAX_ENTRIES
    are skipped with a warning instead of failing the sweep. The rule is
    fixed, so which sizes run never depends on the machine; the machine's
    cores and MemAvailable only choose how many trials of a size run at once
    (see run_experiment). Each report is run_experiment's, measurements
    off, with its schedule set to beta_schedule.describe().
    """
    configs = []
    for n in n_values:
        if not n >= 1:
            raise ValidationError(f"sweep sizes must be >= 1, got n={n}")
        beta = beta_schedule.beta_at(n)
        if not 0.0 < beta <= 1.0:
            raise ValidationError(f"schedule gives beta={beta} at n={n}")
        m = math.ceil(n / beta)  # never narrower than the schedule asks
        if n * m > MAX_ENTRIES:
            warnings.warn(f"skipping n={n}: {n}x{m} exceeds the memory budget")
            continue
        configs.append(base_config.replace(n=int(n), m=int(m)))
    return [(config, replace(run_experiment(config, trials, parallelism),
                             schedule=beta_schedule.describe()))
            for config in configs]


def probe_deviation(eigenvalues, beta, center, radius):
    """(sup |s_emp - s_mp|, sup |s'_emp - s'_mp|) over a disc probe set.

    The uncountable sup is realized on a reproducible probe set: the disc
    center plus 16 equally spaced boundary points. Probes that collide with an
    eigenvalue are nudged by 1e-3 * radius, at most 3 times.
    """
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
        s_mp, ds_mp = mp.stieltjes(z, beta)
        dev = max(dev, abs(s_emp - s_mp))
        ddev = max(ddev, abs(ds_emp - ds_mp))
    return dev, ddev


def _stieltjes_deviation(kernel, u_offset):
    n, beta = kernel.n, kernel.beta
    sqrt_beta = math.sqrt(beta)
    center = 1.0 + (2.0 + PROBE_ETA) * sqrt_beta + u_offset * sqrt_beta
    eigs = kernel.noise_eigenvalues
    dev, _ = probe_deviation(eigs, beta, center, n ** -0.25 * sqrt_beta)
    _, ddev = probe_deviation(eigs, beta, center, n ** -0.125 * sqrt_beta)
    return dev * sqrt_beta, ddev * beta


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
