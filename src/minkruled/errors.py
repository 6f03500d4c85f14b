"""Exception types raised by the geometry and synthesis layers.

Every failure mode of the numerical pipeline gets its own class so callers
(and the CLI) can react to specific conditions instead of parsing messages.
A geometry error whose message names an arc length carries it as ``s``.
"""

from __future__ import annotations


class GeometryError(Exception):
    """Base class for all geometric / numerical domain failures; ``s`` is the arc length of the failure, if known."""

    def __init__(self, message: str, s: float | None = None):
        super().__init__(message)
        self.s = s


class NonOrthonormalSeedError(GeometryError):
    """Initial frame is not Lorentz-orthonormal (or has the wrong orientation)."""


class NonPositiveCurvatureError(GeometryError):
    """Prescribed curvature k1 is not strictly positive on the grid."""


class StepTooLargeError(GeometryError):
    """Frame orthonormality defect exceeded tolerance during integration."""


class FarPositionError(GeometryError):
    """A curve position passed |x| = ``limit`` = h / eps, where the float spacing can exceed the step h."""

    def __init__(self, message: str, s: float | None = None, limit: float | None = None):
        super().__init__(message, s)
        self.limit = limit


class NotUnitTimelikeError(GeometryError):
    """A ruling vector is not unit timelike within tolerance."""


class SingularPointError(GeometryError):
    """Surface normal undefined: the two partials are parallel here."""


class AllCylindricalError(GeometryError):
    """Every sample of the surface is cylindrical; no invariants to report."""


class ThetaSingularityError(GeometryError):
    """|theta| fell below the singularity guard (coth theta blows up)."""


class IntegrationDivergedError(GeometryError):
    """State left the representable range (finite-s blowup of a determining system)."""


class ParamDomainError(GeometryError):
    """Synthesis parameters violate the domain of the selected system."""


class NoSolutionError(GeometryError):
    """artanh argument outside (-1, 1): no real angle satisfies the relation."""


class PhiSingularError(GeometryError):
    """cos(phi) = 0 where sec(phi) is required."""


class GridMismatchError(GeometryError):
    """Two sampled objects do not share the same arc-length grid."""


class ConfigError(Exception):
    """A run configuration failed validation.

    ``field`` is the dotted path of the offending entry, e.g. ``params.v0``.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"config invalid at '{field}': {message}")
        self.field = field
