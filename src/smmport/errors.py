"""Exception types shared across the library.

Input errors subclass ``ValueError``: the CLI exits 2 for them, as for
any other ``ValueError`` or ``OSError``. The others are numerical
failures on valid input, and the CLI exits 1 for them and for
``numpy.linalg.LinAlgError``, which is a ``ValueError`` but not invalid
input.
"""


class SmmError(Exception):
    """Base class for all library errors."""


class NotPositiveDefinite(SmmError):
    """A matrix required to be positive definite failed its factorization."""


class DomainError(SmmError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateMarket(SmmError):
    """No risky opportunity: the requested scaling or policy is undefined."""


class DimensionMismatch(SmmError, ValueError):
    """Vector or matrix dimensions are inconsistent."""


class ShapeMismatch(SmmError, ValueError):
    """Sample arrays disagree in length or width."""


class InvalidSubset(SmmError, ValueError):
    """A state-index subset is empty, out of range, or has duplicates."""


class SingularConstraintSystem(SmmError):
    """Hedge constraints are linearly dependent under the second-moment metric."""


class SingularBasis(SmmError):
    """Basis portfolio functions have a singular second-moment Gram matrix."""
