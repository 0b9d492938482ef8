"""Spiked low-rank signal-plus-noise matrices at extreme aspect ratios.

Library layout:

- ensemble: model configuration and reproducible sampling
- spectra: empirical eigenvalues, singular triples, Stieltjes sums, overlaps
- mp: closed-form Marchenko-Pastur transforms at finite beta
- predictions: limiting eigenvalue and overlap values on the tau scale
- master: 2r x 2r master matrices and winding-number root certification
- estimator: outlier detection and exact signal-strength inversion
- montecarlo: trial harness with optional noise-only rate measurements, schedules
- cli: `spikedwide` command with simulate / predict / estimate / sweep / verify
"""

__version__ = "0.1.0"

from . import mp
from .ensemble import (
    ModelConfig,
    SpikedSample,
    assemble_spiked,
    calibrate_signal_strengths,
    sample_model,
    sample_noise,
    sample_signal_vectors,
    truncate_normalize,
)
from .errors import (
    CertificationError,
    DomainError,
    ExperimentError,
    NumericalError,
    PoleError,
    ValidationError,
)
from .estimator import EstimationReport, analyze, detect_outliers, estimate_tau
from .master import (
    MasterMatrix,
    RootCertificate,
    certify_outliers,
    deterministic_master,
    empirical_master,
    rescale_blocks,
    semi_empirical_master,
    winding_count,
)
from .montecarlo import (
    BetaSchedule,
    ExperimentReport,
    TrialRecord,
    fit_rate,
    run_experiment,
    run_experiments,
    run_trial,
    sweep,
    trial_bytes,
    write_trials_csv,
)
from .predictions import (
    TheoryPrediction,
    centered_eigenvalue_limit,
    left_cosine_limit,
    outlier_locations,
    predict,
    proportional_reference,
    spike_eigenvalue_location,
)
from .spectra import (
    SpectralSummary,
    empirical_stieltjes,
    overlap_matrix,
    right_projection_energy,
    sample_covariance,
    top_spectrum,
)
