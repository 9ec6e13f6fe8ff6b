"""Exception types shared across the package."""


class KgenError(Exception):
    """Base class for all kgen-specific errors."""


class DimensionMismatchError(KgenError, ValueError):
    """Field/representation dimensions do not fit together."""


class NotIrreducibleError(KgenError):
    """Generator product is not scalar, so the representation is reducible."""


class InconsistentRepresentationError(KgenError):
    """Matrices violate the structural constraints of a Clifford representation."""


class NotChiralError(KgenError):
    """Field does not anti-commute with the proposed grading."""


class LiftInvalidError(KgenError):
    """Input to a connecting map is not an admissible lift (contraction or
    self-adjointness violated, or the boundary value is not unitary)."""


class GapClosedError(KgenError):
    """Spectral gap (or invertibility margin) closes on the integration grid."""


class EnclosureInvalidError(KgenError):
    """Enclosing sphere touches a region where the gap closes."""


class MissingChiralError(KgenError, ValueError):
    """Two-dimensional charge requested for a model without a chiral matrix."""


class UnsupportedDimensionError(KgenError, ValueError):
    """Requested invariant is outside the supported sphere dimensions."""


class DomainError(KgenError, ValueError):
    """Point lies outside the domain of a coordinate chart."""


class PoleError(DomainError):
    """Stereographic chart evaluated at its excluded pole."""


class ModelFormatError(KgenError, ValueError):
    """A model or field file does not parse, or a field's coefficients violate
    the schema (multi-index, shape, domain, dimension or size)."""


class HermiticityError(ModelFormatError):
    """Band-model coefficients do not define a Hermitian field."""


class ChiralSymmetryError(ModelFormatError):
    """Declared chiral matrix is invalid or does not anti-commute with the model."""
