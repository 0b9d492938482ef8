"""Exception types shared across the package, and the two groups that sort them.

VALIDATION_ERRORS are bad input: the CLI exits 1 on them. NUMERICAL_ERRORS
are failures of a computation on valid input: the CLI exits 2 on them, and
montecarlo.TRIAL_ERRORS (these plus DomainError) are the ones a single
trial may raise without failing its experiment.
"""

import numpy as np


class ValidationError(ValueError):
    """Malformed input: bad shapes, out-of-range parameters, broken orderings."""


class DomainError(ValueError):
    """Evaluation point outside the mathematical domain of a transform."""


class PoleError(ArithmeticError):
    """Evaluation point collides (or nearly collides) with a spectrum pole."""


class NumericalError(ArithmeticError):
    """A numerically degenerate situation the caller must resolve explicitly."""


class CertificationError(RuntimeError):
    """Contour root certification could not produce a trustworthy count."""


class ExperimentError(RuntimeError):
    """A Monte Carlo experiment failed as a whole (too many bad trials)."""


VALIDATION_ERRORS = (ValidationError, DomainError)
NUMERICAL_ERRORS = (
    PoleError, NumericalError, CertificationError, ExperimentError,
    np.linalg.LinAlgError, FloatingPointError,
)
