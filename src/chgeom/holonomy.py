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
with no conjugation back to the base point.  `holonomy_dimension` reads
the rank of a few such values; the loop samples (`holonomy_samples`,
`rectangle_holonomy`) remain as the independent check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL
from .errors import (
    LeavesAdmissibleRegion,
    OnRamification,
    RankInconclusive,
    Unreachable,
)
from .isometry import (
    Isometry,
    _frame_map,
    centralizer_basis,
    isometry_log,
    project_to_su_algebra,
)
from .triples import (
    _SWEPT,
    Move,
    SCoords,
    Triple,
    _coordinate_move,
    _invariants,
    _standard_cols,
    apply_bend_program,
    s_coords,
)

RAMIFICATION_TOL = 1e-8


def _pin_sheet(t: float, why: str) -> None:
    """Raise OnRamification, saying why, when t sits on t = 1."""
    if abs(t - 1.0) <= RAMIFICATION_TOL:
        raise OnRamification(why)


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
    fields stop being transverse coordinates.
    """
    _pin_sheet(_invariants(T)[2], "bending fields degenerate at t = 1")
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
    c = s_coords(T)
    _pin_sheet(c.t, "curvature normalization degenerates at t = 1")
    G = T.gram().m
    p1, p2, p3 = (p.rep for p in T.points)
    s1, s2 = T.p1.sign, T.p2.sign
    t1, t2, t, al, be = c.t1, c.t2, c.t, c.alpha, c.beta
    denom = t1**2 * t2**2 * (t - 1.0)
    c1 = ((1.0 - be - t2) * t1 * t2 - 2.0 * al**2) / denom
    taubar = t + 1j * al / (t1 * t2)
    return (
        c1 * (p1 - s1 * p2 / G[1, 0])
        + s1 * taubar * p2 / G[1, 0]
        - s1 * s2 * p3 / np.conj(G[0, 1] * G[1, 2])
        + 1j * al * (1.0 - be - 3.0 * t2 + 2.0 * t1 * t2) / (3.0 * denom) * p1
    )


def _rectangle(T: Triple, c: SCoords, ds1: float, ds2: float, tol: float) -> Triple:
    """T carried around the coordinate rectangle from c = s_coords(T): t2
    up by ds1, t1 up by ds2, then both back, every leg on c's sheet."""
    cur = T
    legs = (("12", c.t2 + ds1), ("23", c.t1 + ds2), ("12", c.t2), ("23", c.t1))
    for pair, target in legs:
        cur, _ = _coordinate_move(cur, pair, target, c.sheet, tol)
    return cur


def rectangle_holonomy(
    T: Triple,
    ds1: float,
    ds2: float,
    tol: float = DEFAULT_TOL,
) -> tuple[Isometry, tuple[float, float]]:
    """Holonomy around the coordinate rectangle with sides ds1 (in t2) and
    ds2 (in t1), based at T.

    All four legs stay on the sheet of T; the sides halve on Unreachable
    until the rectangle fits, and the actually used sides are returned.
    The holonomy centralizes the triple product, and its logarithm divided
    by the area converges to the normalized curvature as the sides shrink.
    """
    c = s_coords(T)
    _pin_sheet(c.t, "rectangle sheet is pinned only away from t = 1")
    for _ in range(8):
        try:
            cur = _rectangle(T, c, ds1, ds2, tol)
        except Unreachable:
            ds1 *= 0.5
            ds2 *= 0.5
            continue
        return _frame_map(_standard_cols(cur), _standard_cols(T)), (ds1, ds2)
    raise LeavesAdmissibleRegion("rectangle does not fit in the admissible region")


def _loop_sample(T, basis, ds, rng, tol):
    """One holonomy log, in centralizer coordinates, around a random loop."""
    cur = T
    out: list[Move] = []
    for _ in range(int(rng.integers(0, 4))):
        pair = "12" if rng.random() < 0.5 else "23"
        cc = s_coords(cur)
        # scaling up the tracked coordinate stays reachable on the same sheet
        target = getattr(cc, _SWEPT[pair]) * rng.uniform(1.2, 1.8)
        cur, mv = _coordinate_move(cur, pair, target, cc.sheet, tol)
        out.append(mv)
    cc = s_coords(cur)
    ds1 = ds * rng.uniform(0.5, 1.5) * max(1.0, abs(cc.t2))
    ds2 = ds * rng.uniform(0.5, 1.5) * max(1.0, abs(cc.t1))
    cur = _rectangle(cur, cc, ds1, ds2, tol)
    # undo the outbound legs so the loop closes at the base triple
    cur = apply_bend_program(cur, [Move(mv.pair, -mv.s) for mv in reversed(out)], tol)
    g = _frame_map(_standard_cols(cur), _standard_cols(T))
    return _basis_coords(basis, isometry_log(g))


def _basis_coords(basis, w: np.ndarray) -> np.ndarray:
    """Real least-squares coordinates of the algebra element w in basis."""
    cols = np.column_stack(
        [np.concatenate([y.real.ravel(), y.imag.ravel()]) for y in basis]
    )
    rhs = np.concatenate([w.real.ravel(), w.imag.ravel()])
    sol, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
    return sol


def holonomy_samples(
    T: Triple,
    n_samples: int,
    ds: float = 1e-2,
    rng=None,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Centralizer coordinates of holonomy logs around n random loops."""
    from .sampling import default_rng

    if rng is None or not isinstance(rng, np.random.Generator):
        rng = default_rng(rng)
    basis = centralizer_basis(T.product())
    _pin_sheet(_invariants(T)[2], "holonomy loops need a pinned sheet")
    return np.array(
        [_loop_sample(T, basis, ds, rng, tol) for _ in range(n_samples)]
    )


#: sv1/sv0 of the curvature rows at or above this is rank 2, at or below
#: RANK_ONE_BELOW rank 1; in between the rank is undecided.
RANK_TWO_ABOVE = 1e-6
RANK_ONE_BELOW = 1e-10

#: The curvature's sample points: sheet-pinned moves from T, each scaling
#: the tracked coordinate of the current triple by the factor.
_SPAN_MOVES = (("12", 1.3), ("23", 1.45), ("12", 1.6), ("23", 1.35))


def _curvature_span_ratio(T: Triple, tol: float = DEFAULT_TOL) -> float:
    """sv1/sv0 of the normalised curvature values at T and four moves away,
    in centralizer coordinates of the product."""
    c = s_coords(T)
    _pin_sheet(c.t, "the curvature's sample moves need a pinned sheet")
    basis = centralizer_basis(T.product())
    cur = T
    rows = [_basis_coords(basis, vertical_part(cur, b_commutator(cur)).lie)]
    for pair, factor in _SPAN_MOVES:
        cc = s_coords(cur)
        target = getattr(cc, _SWEPT[pair]) * factor
        cur, _ = _coordinate_move(cur, pair, target, c.sheet, tol)
        rows.append(_basis_coords(basis, vertical_part(cur, b_commutator(cur)).lie))
    rows = np.array(rows)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    sv = np.linalg.svd(rows, compute_uv=False)
    return float(sv[1] / sv[0])


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
    curvature vertical_part(P, b_commutator(P)).lie over the fibre.  The
    curvature is evaluated at T and at four sheet-pinned moves from it,
    each value written in the centralizer basis and normalised; the rank is
    2 when sv1/sv0 >= RANK_TWO_ABOVE, 1 when sv1/sv0 <= RANK_ONE_BELOW.  A
    ratio in between raises RankInconclusive carrying the ratio and the
    band; nothing is resampled.  A non-regular product raises NotRegular,
    and t = 1 raises OnRamification.  n_samples and rng are accepted for
    compatibility and unused; ds matters only as ds = 0.
    """
    if ds == 0:
        return 0
    ratio = _curvature_span_ratio(T, tol)
    if ratio >= RANK_TWO_ABOVE:
        return 2
    if ratio <= RANK_ONE_BELOW:
        return 1
    raise RankInconclusive(
        f"curvature span ratio sv1/sv0 = {ratio:.3g} lies in the undecided band "
        f"({RANK_ONE_BELOW:g}, {RANK_TWO_ABOVE:g})",
        value=ratio,
        bound=(RANK_ONE_BELOW, RANK_TWO_ABOVE),
    )
