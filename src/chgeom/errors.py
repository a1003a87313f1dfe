"""Exception hierarchy for geometric degeneracies and failed preconditions.

A measured check raises with the measured `value` and the `bound` it was
tested against.  A ceiling (a residual, a distance off a locus) goes
through `_require` and passes only when value <= bound; a floor (a pairing,
an eigenvalue gap, the distance |t - 1| from the ramification) goes through
`_require_above` and passes only when value > bound.  A NaN fails both.
"""


class GeometryError(Exception):
    """Base class for all geometric errors raised by this package.

    A numeric test that fails can attach the measured `value` and the
    `bound` it was tested against; both are None otherwise.
    """

    def __init__(self, message: str, value=None, bound=None):
        super().__init__(message)
        self.value = value
        self.bound = bound


def _require(value, bound, error: type[GeometryError], what: str) -> None:
    """Raise `error` carrying `value` and `bound` unless value <= bound.

    The test is written as `not value <= bound` so that a NaN fails it.
    """
    if not value <= bound:
        raise error(f"{what} {value:.2e} exceeds {bound:.2e}", value=value, bound=bound)


def _require_above(value, bound, error: type[GeometryError], what: str) -> None:
    """Raise `error` carrying `value` and `bound` unless value > bound.

    The floor twin of `_require`: a NaN fails it as well.
    """
    if not value > bound:
        message = f"{what} {value:.2e} is not above {bound:.2e}"
        raise error(message, value=value, bound=bound)


class IsotropicVector(GeometryError):
    """The vector has (numerically) vanishing self-product and spans no point.

    For a nonzero vector, `value` is |self-product| / |v|^2 and `bound` the
    tolerance it fell to or below.
    """


class SamePoint(GeometryError):
    """Two points expected to be distinct coincide projectively."""


class EqualPoints(SamePoint):
    """A pair of equal points where a genuine pair is required."""


class OrthogonalPoints(GeometryError):
    """The points are orthogonal, so no bending through them exists."""


class DegenerateTau(GeometryError):
    """The shape invariant is undefined because a needed product vanishes.

    `value` is |g12 g23| / (sqrt|g11 g33| |g22|) of the triple's Gram and
    `bound` the tolerance it fell to or below.
    """


class EuclideanLine(GeometryError):
    """The projective line is euclidean and has no polar point."""


class EuclideanGeodesic(GeometryError):
    """The geodesic is euclidean and carries no orthogonal partners."""


class NotOnGeodesic(GeometryError):
    """The point does not lie on the given geodesic."""


class IncompatibleInertia(GeometryError):
    """The hermitian matrix cannot be realized in signature (+, +, -)."""


class ZeroDiagonal(GeometryError):
    """A Gram matrix diagonal entry vanishes where a nonzero one is needed."""


class NotRegular(GeometryError):
    """The isometry has an eigenvalue with geometric multiplicity above one."""


class NotConjugate(GeometryError):
    """No conjugator exists (or none was found) between the two isometries."""


class NotTwoReflectionProduct(GeometryError):
    """The isometry is not a product of two reflections in negative points."""


class SignChange(GeometryError):
    """Consecutive path samples have different signs."""


class StepTooLarge(GeometryError):
    """Adjacent path samples are too far apart to resolve the lift.

    When raised for the step angle, `value` is that angle in radians and
    `bound` the largest angle accepted.
    """


class BendingOverflow(GeometryError):
    """A bending parameter whose isometry would overflow a float, or a NaN
    one: `value` is |rate * s|, `bound` the bending's th_max, set per kind
    as paths.Bending says (log of the largest float, about 709.78, less
    log(3 max|cols| max|cols_inv|) on a hyperbolic line)."""


class NoPrincipalLog(GeometryError):
    """No principal logarithm is returned: an eigenvalue lies on the closed
    negative real axis, or a square root could not be taken accurately."""


class ExceptionalCase(GeometryError):
    """A configuration for which no bending can repair the line type."""


class NotStronglyRegular(GeometryError):
    """The triple fails the strong regularity requirements."""


class InadmissibleCoords(GeometryError):
    """The requested surface coordinates violate the defining constraints."""


class TraceMinusOne(GeometryError):
    """The isometry has trace -1 and no three-reflection decomposition."""


class Unreachable(GeometryError):
    """The target lies past the extreme ta of the bending profile: below
    its least value for points of equal sign, above its greatest for points
    of opposite sign."""


class OnRamification(GeometryError):
    """The configuration sits on the ramification locus, so the map folds."""


class LeavesAdmissibleRegion(GeometryError):
    """A requested move exits the admissible coordinate region."""


class IncompatibleInvariants(GeometryError):
    """The two configurations have different connected-component invariants."""


class NotAPentagon(GeometryError):
    """The five points do not satisfy the pentagon relation."""


class InadmissibleModuli(GeometryError):
    """The pentagon moduli violate the defining equation or inequalities."""


class DifferentDelta(GeometryError):
    """The pentagons have different central cube roots."""

