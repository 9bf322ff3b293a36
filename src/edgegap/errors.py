"""Exception and warning types shared across the package."""


class EdgegapError(Exception):
    """Base class for all package-specific errors."""


class ConstantPotential(EdgegapError):
    """Edge potential has equal limits W_- = W_+ (excluded by assumption)."""


class WrongPotentialKind(EdgegapError):
    """Operation requires a specific potential kind (e.g. a sharp step)."""


class NoGap(EdgegapError):
    """Gap condition W_+ - W_- < 2b fails; the requested spectral gap is closed."""


class ConvergenceFailure(EdgegapError):
    """Discretization refinement did not reach the requested tolerance."""


class DomainError(EdgegapError):
    """Argument outside the mathematical domain of the function."""


class EmptyIntersection(EdgegapError):
    """Polygon does not meet the open right half-plane."""


class ScenarioError(EdgegapError):
    """Scenario config failed validation."""


class TruncationWarning(UserWarning):
    """An integral or series truncation criterion could not be certified."""

