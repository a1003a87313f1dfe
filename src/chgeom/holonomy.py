"""Curvature and holonomy of the bending fibration over the surface.

The two bending fields b1 (pair 12) and b2 (pair 23) preserve the product
F = R(p3) R(p2) R(p1) exactly and span the directions along the surface;
every other product-preserving deformation is vertical, meaning induced by
a one-parameter group of isometries commuting with F.  The bracket
[b1, b2] is such a mixture, and its vertical part is the curvature of the
fibration.  Transporting a triple around a small coordinate rectangle
produces a holonomy isometry in the centralizer C(F) whose logarithm
recovers that curvature.

The holonomy dimension (one for real triples, two otherwise) is decided
without transport.  Every holonomy element lies in C(F), which is abelian
when F is regular, so by the Ambrose-Singer theorem (Trans. AMS 75, 1953)
the holonomy algebra is the span of the curvature's values over the fibre,
with no conjugation back to the base point: one direction on the real
locus, both off it.  `holonomy_dimension` therefore returns the reality
verdict of `classify_triple`, read in the precision of the input's own
representatives, once the canonical triple realizing the input's
S-coordinates shows a regular product.  The curvature vector
`omega_commutator`, the curvature applied to p1, is kept in closed form,
and the loop samples (`holonomy_samples`) remain as the independent check.
They are read at the canonical triple, in the centralizer basis of its
product: congruent triples have conjugate holonomy, and there the
representatives stay small however far the input was moved, so moving it
changes the samples only by roundoff.  Bendings are natural under
isometries, so a loop ends at its rectangle and never walks its outbound
legs back.  A triple's surface data is read by triples.s_coords alone, at
the caller's tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, _shape_ratio
from .errors import LeavesAdmissibleRegion, OnRamification, _require_above
from .isometry import (
    Isometry,
    _frame_map,
    _realified,
    centralizer_basis,
    isometry_log,
    project_to_su_algebra,
)
from .triples import (
    _SWEPT,
    SCoords,
    Triple,
    _admits,
    _coordinate_move,
    _kappa,
    _reads_real,
    _standard_cols,
    _standard_triple,
    s_coords,
)

RAMIFICATION_TOL = 1e-8


def _pin_sheet(t: float, why: str) -> None:
    """Raise OnRamification, saying why, unless |t - 1| > RAMIFICATION_TOL."""
    _require_above(abs(t - 1.0), RAMIFICATION_TOL, OnRamification, f"{why}: |t - 1|")


TripleVelocities = tuple[np.ndarray, np.ndarray, np.ndarray]


def b_fields(T: Triple) -> tuple[TripleVelocities, TripleVelocities]:
    """Velocity triples of the two bending fields.

    b1 moves the pair (p1, p2) and fixes p3; b2 moves (p2, p3) and fixes
    p1.  Each velocity pairs to zero with its base point, and the fields
    reparametrize the coordinate moves, so they preserve the triple product
    exactly.
    """
    G = T.gram().m
    p1, p2, p3 = (p.rep for p in T.points)
    s1, s2, s3 = (p.sign for p in T.points)
    zero = np.zeros(3, dtype=complex)
    b1 = (
        p1 - s1 * p2 / G[1, 0],
        s2 * p1 / G[0, 1] - p2,
        zero,
    )
    b2 = (
        zero,
        p2 - s2 * p3 / G[2, 1],
        s3 * p2 / G[1, 2] - p3,
    )
    return b1, b2


def b_commutator(T: Triple) -> TripleVelocities:
    """The bracket [b1, b2] of the bending fields, in closed form."""
    G = T.gram().m
    p1, p2, p3 = (p.rep for p in T.points)
    s1, s2, s3 = (p.sign for p in T.points)
    g12, g23, g13 = G[0, 1], G[1, 2], G[0, 2]
    g21, g32, g31 = G[1, 0], G[2, 1], G[2, 0]
    z1 = (s1 * s2 / (g32 * g21)) * (g31 * p2 / g21 - p3)
    z2 = (
        2.0 * s2 * p1 / g12
        - 2.0 * s2 * p3 / g32
        + g31 * p3 / (g21 * g32**2)
        - g13 * p1 / (g23 * g12**2)
    )
    z3 = (s2 * s3 / (g12 * g23)) * (p1 - g13 * p2 / g23)
    return (z1, z2, z3)


@dataclass(frozen=True)
class VerticalPart:
    """Decomposition of a product-preserving deformation.

    c1, c2 are the bending-field coefficients; lie is the vertical
    remainder as an element of the isometry algebra; residual measures how
    far the input was from the span of bendings and verticals.
    """

    c1: float
    c2: float
    lie: np.ndarray
    residual: float


def _gram_rows(
    G: np.ndarray, p_inv: np.ndarray, vels
) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """Obstruction rows to verticality, the map in the point basis, and the
    gauge phase differences (th_1 - th_2, th_2 - th_3).

    A deformation is vertical iff the Gram derivative W is pure gauge,
    W_jk = i (th_j - th_k) G_jk, with the trace of the map supplying the
    overall phase sum; the five real rows below vanish exactly then.
    """
    t_p = p_inv @ np.column_stack(vels)
    W = t_p.T @ G + G @ np.conj(t_p)
    a12 = W[0, 1] / G[0, 1]
    a23 = W[1, 2] / G[1, 2]
    c13 = W[0, 2] - 1j * (a12.imag + a23.imag) * G[0, 2]
    rows = np.array(
        [a12.real, a23.real, float(np.trace(t_p).real), c13.real, c13.imag]
    )
    return rows, t_p, (a12.imag, a23.imag)


def vertical_part(T: Triple, vels: TripleVelocities) -> VerticalPart:
    """Split a deformation into bending-field and vertical components.

    The velocities must pair imaginarily with their base points (the scale
    gauge Re<v_j, p_j> = 0).  Raises OnRamification where the bending
    fields stop being transverse coordinates, reading t by core._shape_ratio
    as the coordinate moves do.
    """
    _pin_sheet(_shape_ratio(T.gram().m, DEFAULT_TOL).real, "bending fields degenerate at t = 1")
    P = np.column_stack([p.rep for p in T.points])
    p_inv = np.linalg.inv(P)
    G = T.gram().m
    b1, b2 = b_fields(T)
    rows1, *_ = _gram_rows(G, p_inv, b1)
    rows2, *_ = _gram_rows(G, p_inv, b2)
    rows_x, *_ = _gram_rows(G, p_inv, vels)
    A = np.column_stack([rows1, rows2])
    sol, *_ = np.linalg.lstsq(A, rows_x, rcond=None)
    c1, c2 = (float(v) for v in sol)
    rem = tuple(
        v - c1 * w1 - c2 * w2 for v, w1, w2 in zip(vels, b1, b2)
    )
    rows_rem, t_p, (a12, a23) = _gram_rows(G, p_inv, rem)
    scale = max(1.0, float(np.abs(np.column_stack(vels)).max()))
    residual = float(np.abs(rows_rem).max())
    # gauge phases: differences from the off-diagonal Gram derivative,
    # absolute scale from the trace
    a31 = -a12 - a23
    d = float(np.trace(t_p).imag)
    th = np.array([(d + a12 - a31) / 3.0, (d + a23 - a12) / 3.0, (d + a31 - a23) / 3.0])
    t_std = np.column_stack(rem) @ p_inv
    lie = t_std - 1j * (P @ np.diag(th) @ p_inv)
    return VerticalPart(
        c1=c1, c2=c2, lie=project_to_su_algebra(lie), residual=residual / scale
    )


def omega_commutator(T: Triple) -> np.ndarray:
    """The curvature vector at p1: the vertical part of [b1, b2] applied
    to the first point, in closed form."""
    return _omega(T, s_coords(T))


def _omega(T: Triple, c: SCoords) -> np.ndarray:
    """omega_commutator(T) with c = s_coords(T) already read."""
    _pin_sheet(c.t, "curvature normalization degenerates at t = 1")
    G = T.gram().m
    p1, p2, p3 = (p.rep for p in T.points)
    s1, s2 = T.p1.sign, T.p2.sign
    t1, t2, t, al, be = c.t1, c.t2, c.t, c.alpha, c.beta
    denom = (t1 * t1) * (t2 * t2) * (t - 1.0)
    c1 = ((1.0 - be - t2) * t1 * t2 - 2.0 * (al * al)) / denom
    taubar = t + 1j * al / (t1 * t2)
    return (
        c1 * (p1 - s1 * p2 / G[1, 0])
        + s1 * taubar * p2 / G[1, 0]
        - s1 * s2 * p3 / np.conj(G[0, 1] * G[1, 2])
        + 1j * al * (1.0 - be - 3.0 * t2 + 2.0 * t1 * t2) / (3.0 * denom) * p1
    )


def rectangle_holonomy(
    T: Triple,
    ds1: float,
    ds2: float,
    tol: float = DEFAULT_TOL,
) -> tuple[Isometry, tuple[float, float]]:
    """Holonomy around the coordinate rectangle with sides ds1 (in t2) and
    ds2 (in t1), based at T: t2 up by ds1, t1 up by ds2, then both back.

    All four legs stay on the sheet of T.  The sides halve, at most seven
    times, until every new corner lies in the admissible region
    (triples._admits): each coordinate has its pair's sign and exceeds 1
    when the pair's signs agree, and the relation's (t - 1)^2, _sheet_gap,
    is nonnegative there.  Then the four legs are bent once each, and the
    sides used are returned; a rectangle that still does not fit raises
    LeavesAdmissibleRegion.  The holonomy centralizes the triple product,
    and its logarithm divided by the area converges to the normalized
    curvature as the sides shrink.
    """
    c = s_coords(T, tol)
    _pin_sheet(c.t, "rectangle sheet is pinned only away from t = 1")
    for _ in range(8):
        corners = ((c.t1, c.t2 + ds1), (c.t1 + ds2, c.t2 + ds1), (c.t1 + ds2, c.t2))
        if all(_admits(t1, t2, c.sigma, c.alpha, c.beta) for t1, t2 in corners):
            break
        ds1 *= 0.5
        ds2 *= 0.5
    else:
        raise LeavesAdmissibleRegion("rectangle does not fit in the admissible region")
    cur = T
    legs = (("12", c.t2 + ds1), ("23", c.t1 + ds2), ("12", c.t2), ("23", c.t1))
    for pair, target in legs:
        cur, _ = _coordinate_move(cur, pair, target, c.sheet, tol)
    return _frame_map(_standard_cols(cur), _standard_cols(T)), (ds1, ds2)


def _canonical_base(T: Triple, tol: float) -> tuple[SCoords, Triple, list]:
    """T's S-coordinates c, the triple realizing standard_gram(c), and the
    centralizer basis of its product.  That triple is congruent to T, so
    holonomy is read there, where representatives stay small however far
    an isometry has moved T."""
    c = s_coords(T, tol)
    _pin_sheet(c.t, "holonomy is read on a pinned sheet, away from t = 1")
    base = _standard_triple(c, tol)
    return c, base, centralizer_basis(base.product())


def _walk(cur: Triple, cc: SCoords, pair: str, factor: float, sheet: int, tol: float):
    """cur, with cc = s_coords(cur), bent on `sheet` until the coordinate
    `pair` tracks is `factor` times larger; returns it and its s_coords."""
    target = getattr(cc, _SWEPT[pair]) * factor
    cur, _ = _coordinate_move(cur, pair, target, sheet, tol)
    return cur, s_coords(cur, tol)


def _basis_coords(basis, w) -> np.ndarray:
    """Real least-squares coordinates of w in basis, in one stacked solve.

    basis is (..., k, r, c): k elements of shape (r, c), such as 3x3
    algebra elements or 3x1 columns; w is (..., r, c).  The leading axes
    broadcast, and every (2rc)xk real system is solved at once by its
    normal equations.
    """
    a = _realified(basis)
    rhs = _realified(w)[..., None]
    return np.linalg.solve(a @ np.swapaxes(a, -1, -2), a @ rhs)[..., 0]


def holonomy_samples(
    T: Triple,
    n_samples: int,
    ds: float = 1e-2,
    rng=None,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Centralizer coordinates of holonomy logs around n random loops.

    Each loop leaves the canonical triple with T's S-coordinates by up to
    three sheet-pinned legs, each scaling a tracked coordinate by a factor
    in [1.2, 1.8], and ends with one coordinate rectangle, whose sides
    halve until it fits.  Bendings are natural under isometries, so that
    rectangle's holonomy is the whole lasso's and no leg is walked back.
    Rows are in the centralizer basis of the canonical triple's product, so
    moving T changes them only by roundoff.
    """
    rng = np.random.default_rng(rng)
    c, base, basis = _canonical_base(T, tol)

    def loop() -> np.ndarray:
        cur, cc = base, c
        for _ in range(int(rng.integers(0, 4))):
            pair = "12" if rng.random() < 0.5 else "23"
            cur, cc = _walk(cur, cc, pair, rng.uniform(1.2, 1.8), c.sheet, tol)
        ds1 = ds * rng.uniform(0.5, 1.5) * max(1.0, abs(cc.t2))
        ds2 = ds * rng.uniform(0.5, 1.5) * max(1.0, abs(cc.t1))
        g, _ = rectangle_holonomy(cur, ds1, ds2, tol)
        return isometry_log(g)

    return _basis_coords(basis, np.reshape([loop() for _ in range(n_samples)], (-1, 3, 3)))


def holonomy_dimension(
    T: Triple,
    n_samples: int = 8,
    ds: float = 1e-2,
    rng=None,
    tol: float = DEFAULT_TOL,
) -> int:
    """Dimension of the holonomy algebra: 0 for trivial loops (ds = 0), 1
    for real triples, 2 otherwise.

    The holonomy lies in the centralizer of the product, abelian when the
    product is regular, so by Ambrose-Singer its algebra is the span of the
    curvature vertical_part(P, b_commutator(P)).lie over the fibre: one
    direction on the real locus, both off it.  So the rank is the reality
    verdict triples._reads_real, the one classify_triple gives, read in
    the precision of T's own representatives; nothing is walked, no
    curvature is evaluated and no rank is measured.  The S-coordinates are
    read at `tol`, the canonical triple with them is built, and its
    product's centralizer read: a non-regular product raises NotRegular.
    No sheet is pinned, so the ramification t = 1, where that product stays
    regular, has a rank too.  Regularity is read there, not on T.product():
    far out, the input's own product reads non-regular by roundoff, on 17
    of 400 draws at scale 2 and 63 of 389 at scale 3 of the default_rng(99)
    sweep of moved triples (none at scales 1 and 1.5).  n_samples and rng
    are accepted for compatibility and unused; ds matters only as ds = 0.
    """
    if ds == 0:
        return 0
    c = s_coords(T, tol)
    centralizer_basis(_standard_triple(c, tol).product())
    return 1 if _reads_real(c.alpha, _kappa(T.points), tol) else 2
