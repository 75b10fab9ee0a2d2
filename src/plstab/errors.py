"""Exception hierarchy shared by all plstab modules."""


class PLError(Exception):
    """Base class for all domain errors raised by plstab."""


class ParseError(PLError):
    """Malformed input file or token."""


class InvalidComplex(PLError):
    """A complex violates a structural or geometric invariant."""


class UnknownVertex(PLError):
    """A vertex index is not present in the complex."""


class RealizationMismatch(PLError):
    """Two complexes do not triangulate the same underlying set."""


class NonCoplanarOverlap(PLError):
    """Two overlapping 2-cells are not coplanar."""


class PointOutsideComplex(PLError):
    """Point location failed: the point is not in the realization."""


class OutOfInterval(PLError):
    """Argument outside the interval of definition of a 1D map."""


class NotFixedPoint(PLError):
    """An operation required f(p) = p and the point is not fixed."""


class SideOutsideInterval(PLError):
    """One-sided derivative requested on a side outside the interval."""


class SupportMismatch(PLError):
    """Fans or germs do not share apex and support."""


class NondegenerateViolation(PLError):
    """An affine piece is singular where invertibility is required."""


class FixIsEverything(PLError):
    """The fixed locus is the whole complex (the map is the identity)."""


class FixIsEmpty(PLError):
    """The fixed locus is empty."""


class DisconnectedComplex(PLError):
    """An operation requires a connected base complex."""


class VertexNotInComplex(UnknownVertex):
    """Alias kept for certificate-facing code paths."""


class InternalError(Exception):
    """A result failed its own re-check: a bug in plstab, never bad input.

    Deliberately not a PLError, so the CLI does not report it as a data error.
    """
