"""Exception taxonomy shared across the package."""


class GeometryError(Exception):
    """Base class for all warpcurv errors."""


class ValidationError(GeometryError):
    """Inputs violate a structural contract (shapes, invariants, kinds)."""


class ShapeError(ValidationError):
    """Dimension or component-count mismatch."""


class DomainError(GeometryError):
    """Point lies outside the chart domain (or too close to a singularity)."""


class DegenerateMetricError(GeometryError):
    """Metric is singular (|det| below tolerance) at the queried point."""


class PlaneError(ValidationError):
    """Null-plane construction or validation failed."""


class ConstructionError(PlaneError):
    """A vector cannot be completed to a null congruence element."""


class ConstraintError(ValidationError):
    """A model constraint (e.g. Kasner exponent relations) is violated."""
