"""Exception types shared across the package."""


class StableCIError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(StableCIError, ValueError):
    """Vector/matrix shapes do not agree."""


class RankDeficient(StableCIError):
    """Submatrix fails the relative rank tolerance check."""


class InsufficientSamples(StableCIError):
    """An estimator needs more observations than columns (n > d)."""


class EmptyInput(StableCIError):
    """An aggregate was asked for on an empty collection."""


class MixedSlack(StableCIError):
    """Budget candidates carry different total slack tau + nu."""


class DegenerateLevel(StableCIError):
    """A corrected level left the domain where quantiles make sense."""


class BadWeights(StableCIError):
    """Level-allocation weights are invalid."""


class NonConvergence(StableCIError):
    """An iterative solver hit its sweep cap before reaching tolerance."""


class AllCandidatesCollinear(StableCIError):
    """Every remaining forward-stepwise candidate is in the span of the
    selected columns."""
