"""Hermitian core: the signature (2, 1) form, points, and their invariants.

Vectors live in C^3 with the hermitian product

    form(u, v) = u1*conj(v1) + u2*conj(v2) - u3*conj(v3),

linear in the first argument.  Non-isotropic vectors span points; negative
points lie inside the ball model, positive points outside.  A pair of points
spans a projective line whose type (hyperbolic, euclidean, spherical) is read
off the restricted form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTau,
    EuclideanLine,
    IncompatibleInertia,
    IsotropicVector,
    SamePoint,
)

DEFAULT_TOL = 1e-9

#: Diagonal of the hermitian form.
SIGNATURE = np.array([1.0, 1.0, -1.0])

#: Matrix of the form: form(u, v) == v.conj() @ J @ u.
J = np.diag(SIGNATURE)


def form(u, v):
    """Hermitian product of 3-vectors, linear in the first argument.

    Accepts stacked arguments; the product is taken along the last axis.
    Two (3,) arrays take one array product and sum its entries, which
    gives the bits of the stacked sum below at a third of the numpy calls.
    """
    # Two paths, not one: t = u * v.conj() summed along the last axis costs
    # 2.4 us on (3,) arrays against 1.3 us here, and on stacks it is not the
    # per-column sum's bits: on the AVX-512 dispatch numpy rounds a complex
    # product of some 10^4 entries or more otherwise than a short one, so on
    # normalized_lift's 10 000-row stacks about a third of the entries move.
    if type(u) is np.ndarray and type(v) is np.ndarray and u.shape == v.shape == (3,):
        t = u * v.conj()
        return (t[0] + t[1]) - t[2]
    u = np.asarray(u)
    v = np.asarray(v)
    return (
        u[..., 0] * v[..., 0].conj()
        + u[..., 1] * v[..., 1].conj()
        - u[..., 2] * v[..., 2].conj()
    )


def self_product(u) -> float:
    """form(u, u) of one 3-vector, bit for bit, without the 0-d slices."""
    u = np.asarray(u)
    t = u * u.conj()
    return float(((t[0] + t[1]) - t[2]).real)


def _rep(x) -> np.ndarray:
    """Representative vector of a point, or the vector itself."""
    if isinstance(x, Point):
        return x.rep
    return np.asarray(x, dtype=complex)


def _rephase(v: np.ndarray) -> tuple[np.ndarray, int]:
    """Rotate v in place so its anchor v[k] is real positive; return (v, k).
    The anchor is the first entry within 1e-12 (relative) of the largest
    modulus, so a tie broken by roundoff cannot move it.  The phase is a
    numpy scalar division; for real v it is an exact sign flip."""
    mags = [abs(z) for z in v.tolist()]
    floor = max(mags) * (1.0 - 1e-12)
    k = 0
    while mags[k] < floor:
        k += 1
    v *= mags[k] / v[k]
    return v, k


@dataclass(frozen=True, eq=False, slots=True)
class Point:
    """A non-isotropic point, held as a canonical representative.

    The representative has self-product exactly +-1 up to roundoff (the sign
    is stored separately), and its anchor coordinate is rotated onto the
    positive real axis: the first coordinate whose modulus is within 1e-12
    (relative) of the largest.  So equal points built from different input
    vectors get bitwise-comparable representatives, and a near-tie between
    two largest coordinates does not flip the phase by roundoff.
    """

    rep: np.ndarray
    sign: int

    def __init__(self, rep: np.ndarray, sign: int):
        # The frozen dataclass __init__ assigns through object.__setattr__;
        # the slots' own setters store the same fields at less call cost.
        _set_rep(self, rep)
        _set_sign(self, sign)

    def __repr__(self) -> str:  # pragma: no cover
        sgn = "+" if self.sign > 0 else "-"
        return f"Point({sgn}1; {np.array2string(self.rep, precision=6)})"


_set_rep = Point.rep.__set__
_set_sign = Point.sign.__set__

_COMPLEX = np.dtype(complex)


def point(v, tol: float = DEFAULT_TOL) -> Point:
    """Span a point by a vector.

    Raises IsotropicVector when the self-product is below `tol` relative to
    the euclidean size of the vector, ValueError when its squared norm is
    not finite (a NaN or infinite entry, or an overflow).
    """
    # Every bit of the result comes from a numpy operation, in this order:
    # the squared moduli t from v * v.conj(), the division by sqrt|s|, in
    # _rephase the anchor phase as a numpy scalar quotient and the in-place
    # product, and last the zeroed imaginary part of the anchor.  Python
    # scalars only choose and check between them (s = (t0 + t1) - t2 is
    # self_product's arithmetic, so it has the same bits); products in
    # Python scalars would round differently from numpy's SIMD complex
    # product.  A complex (3,) array, as Isometry.apply passes, skips
    # asarray and reshape.
    if type(v) is not np.ndarray or v.dtype is not _COMPLEX or v.shape != (3,):
        v = np.asarray(v, dtype=complex).reshape(3)
    t0, t1, t2 = (v * v.conj()).tolist()
    t0, t1, t2 = t0.real, t1.real, t2.real
    norm2 = t0 + t1 + t2
    if not 0.0 < norm2 < math.inf:
        if norm2 == 0.0:
            raise IsotropicVector("zero vector spans no point")
        raise ValueError("vector has a non-finite squared norm")
    s = (t0 + t1) - t2
    if abs(s) <= tol * norm2:
        rel = abs(s) / norm2
        raise IsotropicVector(
            f"self-product {s:.3e} is {rel:.1e} of |v|^2, "
            f"isotropic at tolerance {tol:.1e}",
            value=rel,
            bound=tol,
        )
    rep, k = _rephase(v / math.sqrt(abs(s)))
    rep.imag[k] = 0.0
    rep.setflags(write=False)
    return Point(rep, 1 if s > 0 else -1)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D vector in plain floats: np.linalg.norm on a
    3-vector costs several times more, and the yes/no tests that read it
    run on every bending and surface move."""
    return math.hypot(*map(abs, v.tolist()))


def projectively_equal(p, q, tol: float = DEFAULT_TOL) -> bool:
    """Whether two points (or raw vectors) span the same projective point.

    Compares representative vectors directly.  (Having tance 1 is NOT
    equivalent: for an indefinite form, distinct points can pair to tance 1.)
    """
    a, b = _rep(p), _rep(q)
    return abs(np.vdot(a, b)) >= (1.0 - tol) * _norm(a) * _norm(b)


def tance(p, q) -> float:
    """|<p,q>|^2 / (<p,p><q,q>), the basic pairwise invariant."""
    a, b = _rep(p), _rep(q)
    g = form(a, b)
    return float(abs(g) ** 2 / (self_product(a) * self_product(b)))


def _triple_invariants(m: np.ndarray) -> tuple:
    """(t1, t2, alpha, beta) of a triple from its Gram m[j, k] = <p_j, p_k>."""
    (g11, g12, _), (_, g22, g23), (g31, _, g33) = m.tolist()
    d1, d2, d3 = g11.real, g22.real, g33.real
    n = d1 * d2 * d3
    return (
        abs(g12) ** 2 / (d1 * d2),
        abs(g23) ** 2 / (d2 * d3),
        (g12 * g23 * g31).imag / n,
        float(np.linalg.det(m).real / n),
    )


def _shape_ratio(m: np.ndarray, tol: float) -> complex:
    """The shape ratio g13 g22 / (g12 g23) of a triple from its Gram m.

    Raises DegenerateTau where |g12 g23| is at most tol times the form
    norms sqrt|g11 g33| |g22| (1 for points), a test isometries leave
    unchanged; `value` is the quotient of the two, `bound` the tolerance.
    """
    (g11, g12, g13), (_, g22, g23), (_, _, g33) = m.tolist()
    denom = g12 * g23
    norms = math.sqrt(abs(g11.real * g33.real)) * abs(g22.real)
    if abs(denom) <= tol * norms:
        value = abs(denom) / norms
        raise DegenerateTau(
            f"g12 * g23 is {value:.1e} of the form norms, shape ratio undefined "
            f"at tolerance {tol:.1e}",
            value=value,
            bound=tol,
        )
    return g13 * g22 / denom


def alpha(p1, p2, p3) -> float:
    """Normalized imaginary part of the cyclic triple product."""
    return _triple_invariants(gram((p1, p2, p3)).m)[2]


def beta(p1, p2, p3) -> float:
    """Normalized Gram determinant of a triple."""
    return _triple_invariants(gram((p1, p2, p3)).m)[3]


def tau_complex(p1, p2, p3, tol: float = DEFAULT_TOL):
    """The complex shape ratio g13*g22 / (g12*g23).

    Raises DegenerateTau when the denominator vanishes relative to the
    points' form norms.
    """
    return _shape_ratio(gram((p1, p2, p3)).m, tol)


def tau(p1, p2, p3, tol: float = DEFAULT_TOL) -> float:
    """Real part of the shape ratio tau_complex."""
    return float(tau_complex(p1, p2, p3, tol).real)


class LineType(enum.Enum):
    HYPERBOLIC = "hyperbolic"
    EUCLIDEAN = "euclidean"
    SPHERICAL = "spherical"


def line_type(p, q, tol: float = DEFAULT_TOL) -> LineType:
    """Type of the projective line spanned by two distinct points.

    The sign of the determinant of the restricted form decides: negative is
    hyperbolic (the line meets the ball), positive is spherical, zero is
    euclidean (tangent line); zero means within the band tol (|d| + gg),
    for d the product of the self-products and gg = |<p, q>|^2.

    The same Gram minor decides whether the points are one, which raises
    SamePoint.  Points of opposite sign never are.  Two negative points are
    exactly when the minor reads euclidean, that is when tance - 1 is
    within tol (1 + tance): a distance below about 9e-5 at tol 1e-9.  Two
    positive points with a euclidean minor may be one point or two on a
    tangent line, which the Gram cannot tell apart; there, and only there,
    `projectively_equal` decides.
    """
    a, b = _rep(p), _rep(q)
    return _pair_minor(a, b, abs(form(a, b)) ** 2, tol)


def _pair_minor(a, b, gg: float, tol: float, equal=SamePoint) -> LineType:
    """line_type of vectors a, b from gg = |<a, b>|^2 and their
    self-products, raising `equal` when they span one point."""
    da = self_product(a)
    kind = _minor_type(da * self_product(b), gg, tol)
    if kind is LineType.EUCLIDEAN and (da < 0 or projectively_equal(a, b, tol)):
        raise equal("equal points span no line")
    return kind


def _minor_type(d: float, gg: float, tol: float) -> LineType:
    """Line type from the pair's Gram minor: the product d of its diagonal
    entries and the squared modulus gg of its off-diagonal entry."""
    if d - gg < -tol * (abs(d) + gg):
        return LineType.HYPERBOLIC
    if d - gg > tol * (abs(d) + gg):
        return LineType.SPHERICAL
    return LineType.EUCLIDEAN


_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _cross(a, b) -> np.ndarray:
    """np.cross of two 3-vectors, bit for bit, without its axis handling."""
    return a[_NEXT] * b[_PREV] - a[_PREV] * b[_NEXT]


def polar_point(p, q, tol: float = DEFAULT_TOL) -> Point:
    """The point orthogonal to both p and q.

    Exists iff the line through p and q is not euclidean.
    """
    if line_type(p, q, tol) is LineType.EUCLIDEAN:
        raise EuclideanLine("a euclidean line has an isotropic polar vector")
    v = np.conj(_cross(J @ _rep(p), J @ _rep(q)))
    return point(v, tol)


def project_orthogonal(base, v) -> np.ndarray:
    """Component of `v` form-orthogonal to the non-isotropic vector `base`."""
    b = _rep(base)
    v = np.asarray(v, dtype=complex)
    return v - (form(v, b) / form(b, b)) * b


@dataclass(frozen=True)
class Gram:
    """Hermitian matrix of pairwise products G[j, k] = <v_j, v_k>."""

    m: np.ndarray

    @property
    def n(self) -> int:
        return self.m.shape[0]


def gram(points) -> Gram:
    reps = np.array([_rep(p) for p in points])
    # ndarray.dot gives the bits of @ at less call cost
    m = reps.conj().dot(J).dot(reps.T).T
    m.setflags(write=False)
    return Gram(m=m)


def _chain_phases(m: np.ndarray) -> np.ndarray:
    """Unit phases c, c_0 = 1, making each c_j conj(c_{j+1}) m[j, j+1] real
    positive for the Gram m of a chain of points.  A pairing of modulus
    1e-12 or less breaks the chain: the next phase restarts at 1.  Scalar
    running products, because np.divide and np.cumprod round differently."""
    c = [1.0]
    for j in range(len(m) - 1):
        a = abs(m[j, j + 1])
        c.append(c[-1] * (m[j, j + 1] / a) if a > 1e-12 else 1.0)
    return np.array(c, dtype=complex)


def _as_hermitian(G, tol: float) -> np.ndarray:
    m = np.asarray(G.m if isinstance(G, Gram) else G, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(float(np.abs(m).max()), 1.0)
    if float(np.abs(m - m.conj().T).max()) > tol * scale:
        raise ValueError("matrix is not hermitian")
    return 0.5 * (m + m.conj().T)


def realize_gram(G, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Vectors v_0, ..., v_{n-1} in C^3 with <v_j, v_k> = G[j, k].

    Returns an (n, 3) array whose rows are the vectors.  The matrix must fit
    in signature (2, 1): at most two positive and at most one negative
    eigenvalue, else IncompatibleInertia.  Positive eigendirections go to the
    first two coordinate slots (largest eigenvalue first), the negative one
    to the last.  Each eigenvector is rotated to make its anchor entry real
    positive, the first entry whose modulus is within 1e-12 (relative) of the
    largest, so tied entries (as in Grams with t1 = t2) anchor at the same
    index whatever the roundoff.
    """
    m = _as_hermitian(G, tol)
    n = m.shape[0]
    vals, vecs = np.linalg.eigh(m)
    scale = max(float(np.abs(vals).max()), 1.0)
    pos = [i for i in range(n) if vals[i] > tol * scale]
    neg = [i for i in range(n) if vals[i] < -tol * scale]
    if len(pos) > 2 or len(neg) > 1:
        raise IncompatibleInertia(
            f"inertia ({len(pos)}+, {len(neg)}-) does not embed in (2, 1)"
        )
    out = np.zeros((n, 3), dtype=complex)
    slots = {}
    for slot, i in enumerate(sorted(pos, key=lambda i: -vals[i])):
        slots[i] = slot
    for i in neg:
        slots[i] = 2
    for i, slot in slots.items():
        out[:, slot] = np.sqrt(abs(vals[i])) * _rephase(vecs[:, i])[0]
    return out
