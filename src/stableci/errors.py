"""Exception types shared across the package, and check_number."""

import numbers


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


def check_number(name: str, value, integer: bool = False) -> None:
    """Raise ValueError naming the field unless value has a JSON number's
    type: an int, or a float too unless integer. A bool is neither, and
    50.0 is not an integer."""
    if type(value) is int or (type(value) is float and not integer):
        return  # the common case, without the ABC checks below
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
