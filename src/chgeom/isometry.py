"""Isometries of the form: reflections, traces, regularity, conjugation.

Holomorphic isometries are unit-determinant matrices F with F^H J F = J.
The form-adjoint is star(A) = J A^H J, so the inverse of an isometry is its
star: no linear solve is ever needed.  Lie algebra elements (traceless, with
star(Y) = -Y) are kept as plain 3x3 arrays.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import DEFAULT_TOL, Gram, J, Point, _rep, _rephase, form, point, self_product
from .errors import (
    NoPrincipalLog,
    NotConjugate,
    NotRegular,
    NotTwoReflectionProduct,
    ZeroDiagonal,
    _require,
    _require_above,
)

#: |lambda| - 1 below this counts as a unit-modulus eigenvalue.
EIGEN_TOL = 1e-7

#: |lam conj(mu) - 1| at most this pairs the two non-unit eigenvalues of an
#: isometry (lam with 1/conj(lam)) in conjugator's eigenbases.
PAIRING_TOL = 1e-6

#: Eigenvalues closer than this, relative to max(1, |lambda|), make the
#: eigenbasis of an isometry unusable.  Defective 3x3 matrices scatter
#: their eigenvalues by roundoff^(1/3) ~ 1e-5, so the threshold cannot be
#: tighter.
SEPARATION_TOL = 1e-5


def _ro(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def star(a) -> np.ndarray:
    """Adjoint with respect to the form: J A^H J."""
    return J.dot(np.asarray(a).conj().T).dot(J)


@dataclass(frozen=True, eq=False, slots=True)
class Isometry:
    """A holomorphic isometry, stored as its unit-determinant matrix."""

    m: np.ndarray

    def __init__(self, m: np.ndarray):
        # the slot's own setter, as Point's __init__ does
        _set_m(self, m)

    @property
    def trace(self) -> complex:
        return complex(self.m.trace())

    def inv(self) -> "Isometry":
        return Isometry(_ro(star(self.m)))

    def __matmul__(self, other):
        if isinstance(other, Isometry):
            return Isometry(_ro(self.m.dot(other.m)))
        return NotImplemented

    def apply(self, p: Point, tol: float = DEFAULT_TOL) -> Point:
        return point(self.m.dot(p.rep), tol)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Isometry(trace={self.trace:.6g})"


_set_m = Isometry.m.__set__


def isometry(m, tol: float = DEFAULT_TOL) -> Isometry:
    """Validating constructor: checks that the entries are finite, the form
    condition and the determinant."""
    m = np.asarray(m, dtype=complex).reshape(3, 3)
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    err = float(np.abs(m.conj().T @ J @ m - J).max())
    scale = max(1.0, float(np.abs(m).max()) ** 2)
    if err > tol * scale:
        raise ValueError(f"matrix does not preserve the form (residual {err:.2e})")
    d = np.linalg.det(m)
    if abs(d - 1.0) > 10 * tol * scale:
        raise ValueError(f"determinant {d:.6g} is not 1")
    return Isometry(_ro(m.copy()))


IDENTITY = Isometry(_ro(np.eye(3, dtype=complex)))


def rank_one_map(v, p) -> np.ndarray:
    """Matrix of the map x -> <x, p> v."""
    return np.outer(np.asarray(v, dtype=complex), (J @ _rep(p)).conj())


_EYE = np.eye(3)


def _reflections(reps: np.ndarray) -> np.ndarray:
    """The (n, 3, 3) stack of reflection matrices 2 v (J v)^* / <v, v> - I
    for the rows v of the (n, 3) complex stack `reps`, in one broadcast.

    The one place the formula is written: reflection is its one-row case.
    Row by row it has the bits of the formula taken one vector at a time,
    <v, v> by self_product, J v by a product with J, the outer product by
    np.outer, so stacking the rows moves no bit.
    """
    t = reps * reps.conj()
    s = ((t[:, 0] + t[:, 1]) - t[:, 2]).real
    w = reps.dot(J).conj()
    return (2.0 / s)[:, None, None] * (reps[:, :, None] * w[:, None, :]) - _EYE


def reflection(p: Point) -> Isometry:
    """The holomorphic involution fixing p and its orthogonal complement."""
    return Isometry(_ro(_reflections(_rep(p)[None])[0]))


def _reflection_product(points) -> np.ndarray:
    """Matrix of R(p_n) ... R(p_2) R(p_1), the reflection in the first point
    applied first, multiplied left to right from R(p_n).  The reflections
    are built in one stack; the products are ndarray.dot, which gives the
    bits of @ on 3x3 complex matrices."""
    r = _reflections(np.array([_rep(p) for p in points]))
    m = r[-1]
    for k in range(len(r) - 2, -1, -1):
        m = m.dot(r[k])
    return _ro(m)


def project_to_su(m) -> Isometry:
    """Nearest-isometry correction for a small perturbation of an isometry.

    The input must be near the group, as a product of isometries carrying
    roundoff is.  One Newton step restores the form condition
    quadratically; the determinant is then renormalized by a principal cube
    root.  Far from the group the steps need not converge and the result
    is no isometry; this is not checked.  A zero or non-finite determinant
    after the steps, which has no cube root to divide by, raises ValueError.
    """
    m = np.asarray(m, dtype=complex)
    for _ in range(3):
        e = m.conj().T.dot(J).dot(m) - J
        if float(np.abs(e).max()) < 1e-15:
            break
        m = m.dot(_EYE - 0.5 * J.dot(e))
    # an overflowing determinant is reported by the ValueError below
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.linalg.det(m)
    if d == 0 or not cmath.isfinite(d):
        raise ValueError(f"determinant {complex(d)} of the projected matrix has no cube root")
    m = m * np.exp(-np.log(d) / 3.0)
    return Isometry(_ro(m))


def project_to_su_algebra(y) -> np.ndarray:
    """Nearest Lie algebra element: kill the self-adjoint part and the trace."""
    y = np.asarray(y, dtype=complex)
    y = 0.5 * (y - star(y))
    return y - (np.trace(y) / 3.0) * np.eye(3)


def _expm3(a: np.ndarray) -> np.ndarray:
    """exp of a 3x3 matrix by scaled Taylor series.

    Exact (to roundoff) for small-norm generators, and exact for nilpotent
    generators.
    """
    a = np.asarray(a, dtype=complex)
    norm = float(np.abs(a).sum())
    s = 0
    while norm > 0.25:
        norm *= 0.5
        s += 1
    if s:
        a = a * (0.5**s)
    out = np.eye(3, dtype=complex) + a
    term = a
    for k in range(2, 18):
        term = term @ a / k
        out = out + term
        if float(np.abs(term).max()) < 1e-18:
            break
    for _ in range(s):
        out = out @ out
    return out


#: The principal log series runs for entrywise sum |M - I| at most this.
LOG_SERIES_RADIUS = 0.3

#: An eigenvalue with negative real part and |Im| below this relative to
#: its modulus sits on the branch cut of the principal log.
LOG_CUT_TOL = 1e-8

#: Relative residual bound on each square root; the log's relative error
#: stays within a small multiple of it.
ROOT_TOL = 1e-10

_MAX_SQRTS = 64
_MAX_DB_STEPS = 100


def _log_series(x: np.ndarray) -> np.ndarray:
    """log(I + x) by its Mercator series, for x small."""
    term = x
    out = x.copy()
    for k in range(2, 80):
        term = -term @ x
        out = out + term / k
        if float(np.abs(term).max()) < 1e-18 * k:
            break
    return out


def _sqrtm3(a: np.ndarray) -> np.ndarray:
    """Principal square root by the scaled product-form Denman-Beavers
    iteration (Higham, Functions of Matrices, 2008, eq. 6.28).

    The iteration inverts its iterates, which loses accuracy near the
    branch cut and at large non-normal matrices; a root whose residual
    |y^2 - a| exceeds ROOT_TOL * |y|^2 raises NoPrincipalLog.
    """
    eye = np.eye(3)
    m, y = a, a
    prev = np.inf
    for _ in range(_MAX_DB_STEPS):
        try:
            minv = np.linalg.inv(m)
        except np.linalg.LinAlgError as exc:
            raise NoPrincipalLog("singular iterate in the square-root iteration") from exc
        mu2 = abs(np.linalg.det(m)) ** (-1.0 / 3.0)
        y = 0.5 * np.sqrt(mu2) * (y @ (eye + minv / mu2))
        m = 0.5 * (eye + 0.5 * (mu2 * m + minv / mu2))
        err = float(np.abs(m - eye).sum())
        # quadratic convergence ends where roundoff stops the decrease
        if err <= 1e-15 or (err <= 1e-8 and err > 0.5 * prev):
            break
        prev = err
    else:
        raise NoPrincipalLog("square-root iteration did not converge")
    resid = float(np.abs(y @ y - a).max()) / float(np.abs(y).max()) ** 2
    _require(resid, ROOT_TOL, NoPrincipalLog, "square root residual")
    return y


def _logm3(m: np.ndarray) -> np.ndarray:
    """Principal log: series near the identity, else inverse scaling and
    squaring (Al-Mohy and Higham, SIAM J. Sci. Comput. 34(4), 2012).

    Far from the identity, k principal square roots bring the matrix within
    the series radius and the series result is multiplied by 2^k.  Raises
    NoPrincipalLog when an eigenvalue lies on the closed negative real axis
    (a reflection, for one), where no principal log exists, and when a
    square root cannot be taken to ROOT_TOL.
    """
    m = np.asarray(m, dtype=complex)
    x = m - np.eye(3)
    if float(np.abs(x).sum()) <= LOG_SERIES_RADIUS:
        return _log_series(x)
    vals = np.linalg.eigvals(m)
    on_cut = (vals.real <= 0.0) & (np.abs(vals.imag) <= LOG_CUT_TOL * np.abs(vals))
    if on_cut.any():
        lam = complex(vals[np.flatnonzero(on_cut)[0]])
        raise NoPrincipalLog(f"eigenvalue {lam:.6g} lies on the branch cut of the log")
    # The iteration loses accuracy on eigenvalues near the cut, so the
    # first root is taken with the spectrum rotated to straddle the positive
    # axis: sqrt(m) = e^{i phi/2} sqrt(e^{-i phi} m) while no argument
    # crosses the cut.
    args = np.angle(vals)
    phi = 0.5 * float(args.max() + args.min())
    m = np.exp(0.5j * phi) * _sqrtm3(np.exp(-1j * phi) * m)
    k = 1
    while float(np.abs(m - np.eye(3)).sum()) > LOG_SERIES_RADIUS:
        if k == _MAX_SQRTS:
            raise NoPrincipalLog(f"{k} square roots did not reach the identity")
        m = _sqrtm3(m)
        k += 1
    return 2.0**k * _log_series(m - np.eye(3))


def isometry_log(F: Isometry) -> np.ndarray:
    """Lie algebra element Y with exp(Y) = F, the principal log.

    Raises NoPrincipalLog where _logm3 does: F with an eigenvalue on the
    negative real axis, or too ill-conditioned for its square roots.
    """
    return project_to_su_algebra(_logm3(F.m))


_OMEGA = np.exp(2j * np.pi / 3.0)

#: _OMEGA**k for k = 0, 1, 2, each computed once.
_OMEGA_POWERS = tuple(_OMEGA**k for k in range(3))


@dataclass(frozen=True)
class CubeRoot:
    """A central element omega^k I of the isometry group."""

    k: int

    @property
    def value(self) -> complex:
        return complex(_OMEGA**self.k)

    def matrix(self) -> np.ndarray:
        return self.value * np.eye(3)


def nearest_cube_root(z: complex) -> CubeRoot:
    return CubeRoot(k=min((0, 1, 2), key=lambda k: abs(z - _OMEGA_POWERS[k])))


def center_reduce(g: Isometry) -> Isometry:
    """Multiply by the central cube root that pulls g closest to the identity.

    That is omega^k with omega^-k the cube root nearest trace / 3
    (`nearest_cube_root`), which maximizes Re(omega^k trace); for g a
    central element this returns the identity exactly.
    """
    k = -nearest_cube_root(g.trace / 3.0).k % 3
    if k == 0:
        return g
    return Isometry(_ro(_OMEGA_POWERS[k] * g.m))


def _frame_map(pa, pb) -> Isometry:
    """The isometry nearest the identity with g pa = z pb, |z| = 1, for
    frames (columns) with equal Grams: pb pa^-1 projected onto the group.

    Frames whose Grams differ can leave that projection without a finite
    result; then it raises NotConjugate carrying the largest |entry| (NaN
    where project_to_su finds no determinant to divide by) as `value` and
    the largest float as `bound`."""
    m = pb.dot(np.linalg.inv(pa))
    try:
        g = project_to_su(m)
        size = float(np.abs(g.m).max())
    except ValueError:
        size = math.nan
    _require(size, sys.float_info.max, NotConjugate, "largest |entry| of the frame map")
    return center_reduce(g)


def trace_formula(G, tol: float = DEFAULT_TOL) -> complex:
    """Trace of R_n ... R_2 R_1 from the Gram matrix of the points alone.

    G[j, k] = <p_j, p_k>; the product applies the reflection in p_1 first.
    Subsets of the points contribute cyclic Gram products:

        (-1)^n * (3 - 2n + sum_t sum_{i1<...<it} (-2)^t
                  * G[i1,i2] G[i2,i3] ... G[it,i1] / (G[i1,i1] ... G[it,it]))
    """
    m = np.asarray(G.m if isinstance(G, Gram) else G, dtype=complex)
    n = m.shape[0]
    diag = m.diagonal().real
    scale = max(float(np.abs(m).max()), 1e-300)
    _require_above(np.abs(diag).min(), tol * scale, ZeroDiagonal, "smallest |G[j, j]|")
    total = 3.0 - 2.0 * n + 0j
    for t in range(2, n + 1):
        for idx in combinations(range(n), t):
            cyc = m[idx[-1], idx[0]]
            for a in range(t - 1):
                cyc = cyc * m[idx[a], idx[a + 1]]
            total += (-2.0) ** t * cyc / np.prod(diag[list(idx)])
    return complex((-1) ** n * total)


def is_regular(F: Isometry) -> bool:
    """Whether every eigenvalue of F has a one-dimensional eigenspace: its
    centralizer in su, read as centralizer_basis reads it (SVD cutoff
    EIGEN_TOL), is two-dimensional exactly then and larger otherwise."""
    return len(_centralizer(F)) == 2


def su_basis() -> list[np.ndarray]:
    """A fixed real basis of the 8-dimensional Lie algebra of the group."""
    out = [
        1j * np.diag([1.0, -1.0, 0.0]),
        1j * np.diag([1.0, 0.0, -1.0]),
    ]
    for j in range(3):
        for k in range(j + 1, 3):
            e = np.zeros((3, 3))
            e[j, k] = 1.0
            out.append(J @ (e - e.T))
            out.append(J @ (1j * (e + e.T)))
    return [_ro(b) for b in out]


_SU_BASIS = su_basis()
_SU_STACK = np.array(_SU_BASIS)


def _realified(y) -> np.ndarray:
    """y of shape (..., r, c) as (..., 2rc) reals: real parts, then imaginary."""
    y = np.asarray(y)
    y = y.reshape(y.shape[:-2] + (y.shape[-2] * y.shape[-1],))
    return np.concatenate([y.real, y.imag], axis=-1)


def _su_kernel(images: np.ndarray, scale: float = 1.0) -> list[np.ndarray]:
    """Real basis of the kernel of a real-linear map on su, given the stack
    of images of _SU_BASIS, each an (r, c) matrix: the SVD nullspace (cutoff
    EIGEN_TOL) of the realified images over `scale`, each row signed to make
    its anchor entry positive, all assembled in one product with _SU_STACK."""
    _, s, vt = np.linalg.svd(_realified(images).T / scale)
    rank = int(np.sum(s > EIGEN_TOL * max(s[0], 1.0)))
    for c in vt[rank:]:
        _rephase(c)
    return list((vt[rank:] @ _SU_STACK.reshape(8, 9)).reshape(-1, 3, 3))


def _centralizer(F: Isometry) -> list[np.ndarray]:
    scale = max(1.0, float(np.abs(F.m).max()))
    return _su_kernel(_SU_STACK @ F.m - F.m @ _SU_STACK, scale)


def centralizer_basis(F: Isometry) -> list[np.ndarray]:
    """Real basis of {Y in su : [Y, F] = 0}; two elements iff F is regular."""
    out = _centralizer(F)
    if len(out) != 2:
        raise NotRegular(f"centralizer has dimension {len(out)}, expected 2")
    return out


def stabilizer_algebra(p: Point) -> list[np.ndarray]:
    """Real basis of {Y in su : Y p = 0} (three-dimensional)."""
    return _su_kernel(_SU_STACK @ p.rep[:, None])


def _matched_eigen(F: Isometry, G: Isometry, tol: float):
    """Eigen data of F and G with spectra matched up: NotRegular when either
    has two eigenvalues within SEPARATION_TOL of each other, relative to
    max(1, |lambda|), NotConjugate when the spectra differ."""
    fvals, fvecs = np.linalg.eig(F.m)
    gvals, gvecs = np.linalg.eig(G.m)
    for vals in (fvals, gvals):
        gap = float(np.abs(vals[[0, 0, 1]] - vals[[1, 2, 2]]).min())
        bound = SEPARATION_TOL * max(1.0, float(np.abs(vals).max()))
        _require_above(gap, bound, NotRegular, "eigenvalue gap")
    scale = max(1.0, float(np.abs(fvals).max()))
    # Each eigenvalue of F goes to its nearest of G's.  When that is a
    # matching it is the closest of the six; when two share one, the spectra
    # differ by half a gap of G's at least, and the mismatch reads inf.
    order = [min(range(3), key=lambda j: abs(gvals[j] - f)) for f in fvals.tolist()]
    d = float(np.abs(gvals[order] - fvals).max()) if len(set(order)) == 3 else math.inf
    _require(d, 1e3 * tol * scale, NotConjugate, "spectral mismatch")
    return fvals, fvecs, gvals[order], gvecs[:, order]


def _null_pair(v: np.ndarray, w: np.ndarray, error: type) -> tuple[np.ndarray, np.ndarray]:
    """An isotropic pair scaled to <v, w> = 1/2: v to unit euclidean norm and
    its anchor phase (core._rephase), w to match.  Raises `error` unless
    the pairing |<v, w>| is above 1e-10."""
    v = _rephase(v / np.linalg.norm(v))[0]
    rho = form(v, w)
    _require_above(abs(rho), 1e-10, error, "pairing of the isotropic eigenvectors")
    return v, w / (2.0 * rho.conjugate())


def _normalize_eigenbasis(vals: np.ndarray, vecs: np.ndarray):
    """Scale eigenvectors of a regular isometry to a canonical Gram.

    An isometry's spectrum is all unit-modulus or a pair (lam, 1/conj(lam))
    at the extreme moduli with a unit eigenvalue between them, so the
    moduli are read in order: all three are unit when the largest is within
    EIGEN_TOL of 1, else the middle one is.  Unit-modulus eigenvalues get
    self-product +-1 vectors (their signs are returned for compatibility
    checks); the two eigenvectors of the pair are isotropic and are
    normalized to pair to 1/2, once |lam conj(mu) - 1| is within
    PAIRING_TOL.
    """
    cols = [None, None, None]
    signs: dict[int, int] = {}
    lo, mid, hi = sorted(range(3), key=lambda i: abs(vals[i]))
    unit = (lo, mid, hi) if abs(abs(vals[hi]) - 1.0) <= EIGEN_TOL else (mid,)
    for i in unit:
        v = vecs[:, i]
        s = self_product(v)
        _require_above(abs(s), 1e-8, NotRegular, "|self-product| of a unit eigenvector")
        cols[i] = _rephase(v / np.sqrt(abs(s)))[0]
        signs[i] = 1 if s > 0 else -1
    if len(unit) == 1:
        i, j = sorted((lo, hi))
        pair = float(abs(vals[i] * vals[j].conjugate() - 1.0))
        _require(pair, PAIRING_TOL, NotConjugate, "eigenvalue pairing |lam conj(mu) - 1|")
        cols[i], cols[j] = _null_pair(vecs[:, i], vecs[:, j], NotRegular)
    return np.array(cols).T, signs


def conjugator(F: Isometry, G: Isometry, tol: float = DEFAULT_TOL) -> Isometry:
    """An isometry g with g F g^{-1} = G, for regular semisimple inputs.

    Matches eigenvalues, normalizes both eigenbases to the same Gram, and
    reads g off as the change of basis.  Raises NotConjugate when the
    spectra or the eigenvector sign patterns differ or a non-unit pair
    misses PAIRING_TOL, NotRegular when the eigenbasis method degenerates.
    """
    fvals, fvecs, gvals, gvecs = _matched_eigen(F, G, tol)
    bf, signs_f = _normalize_eigenbasis(fvals, fvecs)
    bg, signs_g = _normalize_eigenbasis(gvals, gvecs)
    if signs_f != signs_g:
        raise NotConjugate("eigenvector sign patterns differ")
    g = _frame_map(bf, bg)
    resid = float(np.abs(g.m @ F.m - G.m @ g.m).max())
    bound = 1e4 * tol * max(1.0, float(np.abs(G.m).max()))
    _require(resid, bound, NotConjugate, "conjugator residual")
    return g


def split_two_reflections(
    G: Isometry, s_param: float = 0.0, tol: float = DEFAULT_TOL
) -> tuple[Point, Point]:
    """Negative points x1, x2 with reflection(x2) @ reflection(x1) == G.

    Such G translate along a geodesic; the solutions form a one-parameter
    family sliding along it, and `s_param` picks one (x1 sits at geodesic
    parameter s_param).  Raises NotTwoReflectionProduct when the spectrum is
    not real and positive with its middle eigenvalue within EIGEN_TOL of 1
    and its largest s > 1 + EIGEN_TOL (a unit-modulus s is no translation),
    when the unit eigenvector is not positive, when the extreme eigenvectors
    pair to at most 1e-10 (`_null_pair`), and when the two reflections miss
    G by more than 1e-6 max(1, |s|).  That last residual is the one judge of
    whether the extremes are reciprocal, s and 1/s.
    """
    vals, vecs = np.linalg.eig(G.m)
    scale = max(1.0, float(np.abs(vals).max()))
    imag = float(np.abs(vals.imag).max())
    _require(imag, 1e-7 * scale, NotTwoReflectionProduct, "spectrum imaginary part")
    order = np.argsort(vals.real)
    lam = vals.real[order]
    if lam[0] <= 0 or abs(lam[1] - 1.0) > EIGEN_TOL or lam[2] <= 1.0 + EIGEN_TOL:
        raise NotTwoReflectionProduct(f"spectrum {lam} is not (1/s, 1, s), s > 1")
    u = vecs[:, order[1]]
    _require_above(self_product(u), 0.0, NotTwoReflectionProduct, "<u, u> at lam = 1")
    v1, v2 = _null_pair(vecs[:, order[2]], vecs[:, order[0]], NotTwoReflectionProduct)
    u1 = s_param
    u2 = s_param - 0.5 * np.log(lam[2])
    x1 = point(np.exp(-u1) * v1 - np.exp(u1) * v2, tol)
    x2 = point(np.exp(-u2) * v1 - np.exp(u2) * v2, tol)
    resid = float(np.abs(_reflection_product((x1, x2)) - G.m).max())
    _require(resid, 1e-6 * scale, NotTwoReflectionProduct, "reconstruction residual")
    return x1, x2
