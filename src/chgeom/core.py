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
    """
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


@dataclass(frozen=True, eq=False)
class Point:
    """A non-isotropic point, held as a canonical representative.

    The representative has self-product exactly +-1 up to roundoff (the sign
    is stored separately), and its largest-modulus coordinate is rotated onto
    the positive real axis, so equal points built from different input
    vectors get bitwise-comparable representatives.
    """

    rep: np.ndarray
    sign: int

    def __repr__(self) -> str:  # pragma: no cover
        sgn = "+" if self.sign > 0 else "-"
        return f"Point({sgn}1; {np.array2string(self.rep, precision=6)})"


def point(v, tol: float = DEFAULT_TOL) -> Point:
    """Span a point by a vector.

    Raises IsotropicVector when the self-product is below `tol` relative to
    the euclidean size of the vector, ValueError when its squared norm is
    not finite (a NaN or infinite entry, or an overflow).
    """
    # Three entries: Python scalars beat numpy's per-call overhead here.
    # t holds the squared moduli; s = (t0 + t1) - t2 is self_product's
    # arithmetic, so it gives the same bits.  The phase stays a numpy
    # scalar division on rep[k], whose roundoff differs from Python's
    # complex arithmetic in the last bit.
    v = np.asarray(v, dtype=complex).reshape(3)
    t = (v * v.conj()).real.tolist()
    norm2 = t[0] + t[1] + t[2]
    if not 0.0 < norm2 < math.inf:
        if norm2 == 0.0:
            raise IsotropicVector("zero vector spans no point")
        raise ValueError("vector has a non-finite squared norm")
    s = (t[0] + t[1]) - t[2]
    if abs(s) <= tol * norm2:
        rel = abs(s) / norm2
        raise IsotropicVector(
            f"self-product {s:.3e} is {rel:.1e} of |v|^2, "
            f"isotropic at tolerance {tol:.1e}",
            value=rel,
            bound=tol,
        )
    rep = v / math.sqrt(abs(s))
    mags = [abs(z) for z in rep.tolist()]
    k = mags.index(max(mags))
    rep *= mags[k] / rep[k]
    rep[k] = rep[k].real
    rep.flags.writeable = False
    return Point(rep=rep, sign=1 if s > 0 else -1)


def projectively_equal(p, q, tol: float = DEFAULT_TOL) -> bool:
    """Whether two points (or raw vectors) span the same projective point.

    Compares representative vectors directly.  (Having tance 1 is NOT
    equivalent: for an indefinite form, distinct points can pair to tance 1.)
    """
    a, b = _rep(p), _rep(q)
    return abs(np.vdot(a, b)) >= (1.0 - tol) * np.linalg.norm(a) * np.linalg.norm(b)


def tance(p, q) -> float:
    """|<p,q>|^2 / (<p,p><q,q>), the basic pairwise invariant."""
    a, b = _rep(p), _rep(q)
    g = form(a, b)
    return float(abs(g) ** 2 / (self_product(a) * self_product(b)))


def _triple_invariants(m: np.ndarray, tol: float = DEFAULT_TOL) -> tuple:
    """(t1, t2, tau, alpha, beta) of a triple from its Gram m[j, k] = <p_j, p_k>.

    tau is None where m12 m23 vanishes relative to the form norms
    sqrt|m11 m33| |m22| (1 for points), a test isometries leave unchanged.
    """
    (g11, g12, g13), (_, g22, g23), (g31, _, g33) = m.tolist()
    d1, d2, d3 = g11.real, g22.real, g33.real
    n = d1 * d2 * d3
    denom = g12 * g23
    degenerate = abs(denom) <= tol * math.sqrt(abs(d1 * d3)) * abs(d2)
    return (
        abs(g12) ** 2 / (d1 * d2),
        abs(g23) ** 2 / (d2 * d3),
        None if degenerate else g13 * g22 / denom,
        (g12 * g23 * g31).imag / n,
        float(np.linalg.det(m).real / n),
    )


def alpha(p1, p2, p3) -> float:
    """Normalized imaginary part of the cyclic triple product."""
    return _triple_invariants(gram((p1, p2, p3)).m)[3]


def beta(p1, p2, p3) -> float:
    """Normalized Gram determinant of a triple."""
    return _triple_invariants(gram((p1, p2, p3)).m)[4]


def tau_complex(p1, p2, p3, tol: float = DEFAULT_TOL):
    """The complex shape ratio g13*g22 / (g12*g23).

    Raises DegenerateTau when the denominator vanishes relative to the
    points' form norms.
    """
    t = _triple_invariants(gram((p1, p2, p3)).m, tol)[2]
    if t is None:
        raise DegenerateTau("g12 * g23 vanishes, shape ratio undefined")
    return t


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
    euclidean (tangent line).
    """
    if projectively_equal(p, q, tol):
        raise SamePoint("equal points span no line")
    a, b = _rep(p), _rep(q)
    return _minor_type(self_product(a) * self_product(b), abs(form(a, b)) ** 2, tol)


def _minor_type(d: float, gg: float, tol: float) -> LineType:
    """Line type from the pair's Gram minor: the product d of its diagonal
    entries and the squared modulus gg of its off-diagonal entry."""
    if d - gg < -tol * (abs(d) + gg):
        return LineType.HYPERBOLIC
    if d - gg > tol * (abs(d) + gg):
        return LineType.SPHERICAL
    return LineType.EUCLIDEAN


def _cross(a, b) -> np.ndarray:
    """np.cross of two 3-vectors, bit for bit, without its axis handling."""
    return a[[1, 2, 0]] * b[[2, 0, 1]] - a[[2, 0, 1]] * b[[1, 2, 0]]


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
    m = (reps.conj() @ J @ reps.T).T
    m.flags.writeable = False
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
    to the last; eigenvector phases are fixed so the output is deterministic.
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
        u = vecs[:, i]
        k = int(np.argmax(np.abs(u)))
        u = u * (abs(u[k]) / u[k])
        out[:, slot] = np.sqrt(abs(vals[i])) * u
    return out
