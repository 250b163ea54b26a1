"""Exception hierarchy for the prionpde package.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps each one to a stable nonzero exit code.
"""

from __future__ import annotations


class PrionPdeError(Exception):
    """Base class for all package errors."""


class ConfigParseError(PrionPdeError):
    """Run configuration file is missing, unreadable, or malformed."""


# -- grid ------------------------------------------------------------------

class BadBounds(PrionPdeError):
    """Grid bounds violate 0 < y0 < Ymax."""


class TooFewCells(PrionPdeError):
    """Grid must have at least 4 cells."""


class NonFiniteSample(PrionPdeError):
    """A sampled function value was NaN or infinite during projection."""


# -- kernels ---------------------------------------------------------------

class NonEvaluableKernel(PrionPdeError):
    """A kernel closure raised or returned non-finite values on the probe lattice."""


class ValidationFailed(PrionPdeError):
    """Kernel set failed one or more hypothesis checks in strict mode."""


class UnknownFamily(PrionPdeError):
    """Hypothesis family tag is not one of the supported values."""


class NonPositiveTau(PrionPdeError):
    """Growth rate must be strictly positive."""


class UnnormalizedK0(PrionPdeError):
    """Daughter-distribution profile does not integrate to 1 on (0, 1)."""


class AsymmetricK0(PrionPdeError):
    """Daughter-distribution profile is not symmetric about 1/2."""


class LevelInconsistent(PrionPdeError):
    """Truncation level's support radius is below the value required by its horizon."""


class SupportExceedsGrid(PrionPdeError):
    """Guaranteed support of a truncated run does not fit inside the grid."""


# -- operators -------------------------------------------------------------

class OutOfDomain(PrionPdeError):
    """Queried size lies outside the grid interval."""


class NegativeTime(PrionPdeError):
    """Transport was asked to run for a negative or non-finite effective time."""


class PairOutOfRange(PrionPdeError):
    """A joining event with nonzero mass flux targets a size beyond the grid.

    Signals that Ymax is too small for this joining kernel and density.
    Stray flux up to operators.STRAY_FLUX_RTOL times the largest pair
    flux is dropped as rounding; anything larger raises this.
    """


# -- solver ----------------------------------------------------------------

class BlowUp(PrionPdeError):
    """A state value became non-finite, or a reaction interval needs
    more substeps than solver.MAX_SUBSTEPS."""


class NegativeMonomer(PrionPdeError):
    """Monomer concentration fell below -1e-12."""


class MassEscape(PrionPdeError):
    """Mass beyond the tail-monitoring threshold exceeded the caller's bound."""


class PositivityError(PrionPdeError):
    """Density negativity beyond the configured tolerance."""


# -- diagnostics -----------------------------------------------------------

class InsufficientSnapshots(PrionPdeError):
    """A replay needs more snapshots than the run kept."""


class EtaCutoffViolated(PrionPdeError):
    """Joining kernel does not vanish beyond the declared pair-size cutoff."""


class WrongFamily(PrionPdeError):
    """Diagnostic requires a kernel set declaring a different hypothesis family."""


class ZeroMass(PrionPdeError):
    """Weight construction needs an initial density with positive first moment."""


# -- oracle ----------------------------------------------------------------

class MismatchedRates(PrionPdeError):
    """Moment-system rates do not match the rates of the compared run."""


# every class above, in order
__all__ = [name for name, obj in list(globals().items())
           if isinstance(obj, type) and issubclass(obj, PrionPdeError)]
