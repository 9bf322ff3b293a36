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


class TieWarning(UserWarning):
    """An eigenvalue lies within tolerance of the counting threshold."""


class TruncationWarning(UserWarning):
    """An integral or series truncation criterion could not be certified."""


class NoiseFloorWarning(UserWarning):
    """A count was requested at a threshold below the assembly noise floor.

    Gram cores are accumulated in double precision; after the per-column
    exponent scales are restored, entrywise relative roundoff becomes
    absolute noise of size ~ e^{2 max(peak)} * n * 1e-15.  Eigenvalue
    counts at thresholds under that floor include noise modes and grow
    with the node count instead of converging.
    """
