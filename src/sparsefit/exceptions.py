"""Exception and warning types shared across the package."""


class SparsefitError(Exception):
    """Base class for all package errors."""


class DataError(SparsefitError):
    """Malformed input data (CSV parsing, bad response column, non-finite values)."""


class FamilyMismatch(SparsefitError):
    """A penalty or likelihood family was used where it is not admitted."""


class SingularSystem(SparsefitError):
    """A ridge-regularized inner system could not be solved."""


class TooManyPredictors(SparsefitError):
    """Exhaustive subset enumeration refused because p exceeds the cap."""


class NonConvergence(SparsefitError):
    """An iterative solver hit its iteration budget.

    The partial result, when one is available, is attached as ``.result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class RidgeFallbackWarning(UserWarning):
    """A singular Newton system was stabilized with a small ridge."""


class SingularProjectionWarning(UserWarning):
    """A rank-deficient unpenalized block was projected with a pseudo-inverse."""
