"""Exception hierarchy shared by all epkit modules."""


class EpkitError(Exception):
    """Base class for all epkit errors."""


class NonSquareError(EpkitError):
    """Operation requires a square matrix."""


class DimensionTooLargeError(EpkitError):
    """Matrix exceeds the supported dense-solver dimension cap."""


class NonFiniteError(EpkitError):
    """Matrix or vector contains NaN or Inf entries."""


class AmbientMismatchError(EpkitError):
    """Subspaces live in different ambient dimensions."""


class NotAnEigenvalueError(EpkitError):
    """Requested shift has an empty numerical kernel."""


class ChainSolveFailedError(EpkitError):
    """A generalized-eigenvector chain equation could not be solved."""


class SeedNotInKernelError(EpkitError):
    """Supplied chain seed is not a kernel vector at the working tolerance."""


class GeneratorFailureError(EpkitError):
    """A Bloch-block generator returned non-finite or mis-shaped output."""


class OddDimensionError(EpkitError):
    """Sublattice operations need an even-dimensional Hamiltonian."""


class ZeroEigenvaluePresentError(EpkitError):
    """Nonzero-energy classifier called with a (near-)singular block product."""


class CrossCheckMismatchError(EpkitError):
    """Algebraic verdict disagrees with the numerical Jordan structure.

    Signals a tolerance pathology rather than a physics result; callers
    should re-examine the tolerances they passed in.
    """


class ParamViolationError(EpkitError):
    """Model parameters violate a constructor precondition."""


class ZeroVectorError(EpkitError):
    """A state vector with (numerically) zero norm was supplied."""


class NoiseFloorReachedError(EpkitError):
    """Too few branch energies above the noise floor to fit an exponent."""


class ConfigError(EpkitError):
    """Invalid run configuration (unknown key, bad value, bad range)."""


class RankSequenceError(EpkitError):
    """Numerical ranks of successive powers or products that no Jordan
    structure has, e.g. a rank that rises: the tolerance cannot resolve the
    scales of the matrix."""
