"""Exception types raised by the geometry kernel and the higher layers."""


class GeometryError(Exception):
    """Base class for all polarmin errors."""


class DegenerateInput(GeometryError):
    """Input does not span dimension 2 (collinear or duplicate points)."""


class Unbounded(GeometryError):
    """A halfplane intersection has a nonzero recession cone."""


class Empty(GeometryError):
    """A halfplane intersection is empty or lower-dimensional."""


class OriginNotInterior(GeometryError):
    """Operation requires the origin strictly inside the body."""


class SingularTransform(GeometryError):
    """Linear part of a transform has determinant zero."""


class BadParams(GeometryError):
    """Family parameters outside the family's domain."""


class NoClosedForm(GeometryError):
    """The family has no stated closed-form value for this quantity."""


class NotNormalized(GeometryError):
    """Body is not in normalized A(t) position."""


class InternalInvariantViolation(GeometryError):
    """A guaranteed-existence step failed; indicates a bug, not bad input."""


class NoSlackEdge(GeometryError):
    """Every dual edge already carries a contact point."""


class NotRotatable(GeometryError):
    """The chosen dual edge does not have exactly one interior contact."""


class NoFeasibleStart(GeometryError):
    """Rejection sampling exhausted its budget without a feasible candidate."""


class LimitExceeded(GeometryError):
    """An exact value is too long for an interpreter limit, such as the
    digit limit of integer string conversion."""


class ZeroNormal(GeometryError):
    """A halfspace normal must be nonzero."""
