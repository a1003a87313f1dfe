"""Pentagons of point reflections composing to a central element.

Five points whose reflections satisfy R5 R4 R3 R2 R1 = delta I with delta a
cube root of unity.  The first three points form a triple carrying the
surface machinery, the last two split the remaining two-reflection factor
conj(delta) R3 R2 R1 and slide along its axis.  Bending a consecutive pair
commutes with the product of that pair's reflections, so pentagon moves
preserve the relation exactly; two pentagons with the same delta and
matching triple data are joined by at most six moves and one isometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    Gram,
    Point,
    _chain_phases,
    _rep,
    form,
    gram,
    projectively_equal,
    tance,
)
from .errors import (
    DifferentDelta,
    InadmissibleCoords,
    InadmissibleModuli,
    NotAPentagon,
    NotConjugate,
    _require,
)
from .isometry import (
    CubeRoot,
    Isometry,
    _reflection_product,
    nearest_cube_root,
    split_two_reflections,
)
from .paths import _bend_targets, bending
from .triples import (
    _COORD_TOL,
    Move,
    SCoords,
    Triple,
    _bend,
    _sheet_gap,
    connect_triples,
    decompose_three_reflections,
    triple_from_coords,
)


@dataclass(frozen=True)
class Pentagon:
    p1: Point
    p2: Point
    p3: Point
    p4: Point
    p5: Point
    delta: CubeRoot

    @property
    def points(self) -> tuple[Point, Point, Point, Point, Point]:
        return (self.p1, self.p2, self.p3, self.p4, self.p5)

    def triple(self) -> Triple:
        return Triple(self.p1, self.p2, self.p3)

    def gram(self) -> Gram:
        return gram(self.points)

    def product(self) -> Isometry:
        """R5 R4 R3 R2 R1, equal to delta I for a valid pentagon."""
        return Isometry(_reflection_product(self.points))

    def apply(self, g: Isometry, tol: float = DEFAULT_TOL) -> "Pentagon":
        return Pentagon(*(g.apply(p, tol) for p in self.points), delta=self.delta)


def verify_pentagon(points, tol: float = 1e-8) -> CubeRoot:
    """The central value of R5 R4 R3 R2 R1, or NotAPentagon.

    The off-center residual is bounded by tol times the largest of 1, |f|
    and the squared euclidean norms of the unit representatives: f itself
    is ~delta I, but the roundoff of the five reflections grows with
    |rep|^2, so a valid pentagon far from the origin misses a bound of
    tol * |f|.
    """
    f = _reflection_product(points)
    root = nearest_cube_root(complex(np.trace(f)) / 3.0)
    resid = float(np.abs(f - root.matrix()).max())
    reps = np.array([_rep(p) for p in points])
    rep_norm2 = float(
        (np.linalg.norm(reps, axis=1) ** 2 / np.abs(form(reps, reps).real)).max()
    )
    bound = tol * max(1.0, float(np.abs(f).max()), rep_norm2)
    _require(resid, bound, NotAPentagon, "off-center residual")
    return root


def pentagon(p1, p2, p3, p4, p5, tol: float = 1e-8) -> Pentagon:
    """Validated pentagon from five points."""
    delta = verify_pentagon((p1, p2, p3, p4, p5), tol)
    return Pentagon(p1, p2, p3, p4, p5, delta)


def build_pentagon(
    delta: CubeRoot, p4: Point, p5: Point, tol: float = DEFAULT_TOL
) -> Pentagon:
    """Complete (p4, p5) to a pentagon with central value delta.

    The first three points are a three-reflection decomposition of
    delta R(p4) R(p5); errors from the decomposition (non-regular or
    undecomposable products) propagate.
    """
    f = Isometry(delta.value * _reflection_product((p5, p4)))
    T = decompose_three_reflections(f, tol)
    return pentagon(T.p1, T.p2, T.p3, p4, p5, tol=1e-7)


def pentagon_moduli(P: Pentagon) -> tuple[float, float, float]:
    """The chart coordinates (t1, t2, t4) of the pentagon."""
    return (
        tance(P.p1, P.p2),
        tance(P.p2, P.p3),
        tance(P.p4, P.p5),
    )


def pentagon_from_moduli(
    m, delta: CubeRoot, s5: float = 0.0, sheet: int = 1, tol: float = DEFAULT_TOL
) -> Pentagon:
    """Pentagon over the moduli chart m = (t1, t2, t4), central value delta.

    The triple invariants are forced by the trace identity
    8 i alpha + 4 beta - 1 = delta (4 t4 - 1) on the sign pattern
    (+1, -1, -1), and t sits on the chosen sheet of the surface (positive
    by default); s5 slides the split pair along the axis of
    conj(delta) R3 R2 R1.  Raises InadmissibleModuli when the chart misses
    the surface (including the central value 1, whose products have no
    (+1, -1, -1) triples).
    """
    t1, t2, t4 = (float(v) for v in m)
    if delta.k not in (1, 2):
        raise InadmissibleModuli("the chart covers the nontrivial central values")
    if sheet not in (1, -1):
        raise ValueError(f"sheet must be +-1, got {sheet!r}")
    if not (t1 < 0.0 and t2 > 1.0 and t4 > 1.0):
        raise InadmissibleModuli(
            f"moduli need t1 < 0 < 1 < t2, t4; got ({t1:.6g}, {t2:.6g}, {t4:.6g})"
        )
    sign = 1.0 if delta.k == 1 else -1.0
    alpha = sign * np.sqrt(3.0) * (4.0 * t4 - 1.0) / 16.0
    beta = (3.0 - 4.0 * t4) / 8.0
    gap = _sheet_gap(t1, t2, alpha, beta)
    if gap < 0.0:
        raise InadmissibleModuli("no real surface point over these moduli")
    c = SCoords(
        t=1.0 + sheet * float(np.sqrt(gap)),
        t1=t1,
        t2=t2,
        sigma=(1, -1, -1),
        alpha=float(alpha),
        beta=float(beta),
    )
    try:
        T = triple_from_coords(c, tol)
    except InadmissibleCoords as exc:
        raise InadmissibleModuli(str(exc)) from exc
    g = Isometry(np.conj(delta.value) * T.product().m)
    x1, x2 = split_two_reflections(g, s5, tol)
    return Pentagon(T.p1, T.p2, T.p3, x2, x1, delta)


def is_real_pentagon(P: Pentagon, tol: float = 1e-8) -> bool:
    """Whether the five points sit on a common real plane.

    Tested gauge-invariantly: in the chain gauge c of _chain_phases, where
    consecutive pairings are real positive, the Gram matrix
    c_j conj(c_k) G[j, k] must be real.
    """
    G = P.gram().m
    c = _chain_phases(G)
    G = c[:, None] * G * c.conj()
    return float(np.abs(G.imag).max()) <= tol * max(1.0, float(np.abs(G).max()))


def _move_34(P: Pentagon, t4_target: float, tol: float) -> tuple[Pentagon, Move]:
    """Bend the pair (p3, p4) until ta(p4, p5) = t4_target (smallest slide)."""
    b = bending(P.p3, P.p4, tol)
    s = min(_bend_targets(b, P.p4, P.p5, t4_target, tol), key=abs)
    moved = Pentagon(*_bend(P.points, "34", s, tol, b), delta=P.delta)
    return moved, Move(pair="34", s=float(s))


def apply_pentagon_moves(P: Pentagon, moves, tol: float = DEFAULT_TOL) -> Pentagon:
    """Replay bending moves on the pairs 12, 23, 34 and 45."""
    pts = P.points
    for mv in moves:
        pts = _bend(pts, mv.pair, mv.s, tol)
    return Pentagon(*pts, delta=P.delta)


def connect_pentagons(
    A: Pentagon, B: Pentagon, tol: float = DEFAULT_TOL
) -> tuple[list[Move], Isometry]:
    """A move program (at most six) and isometry carrying A onto B.

    Both pentagons first slide to a common ta(p4, p5) (one 34 move each,
    the one on B undone at the end), the triples are then connected on the
    surface, and a single 45 move aligns the split pair along the shared
    axis.  Raises DifferentDelta for distinct central values, and the
    triple stage raises IncompatibleInvariants for unmatched sign patterns.
    """
    if A.delta.k != B.delta.k:
        raise DifferentDelta(f"central values differ: k={A.delta.k} vs k={B.delta.k}")
    t4a, t4b = tance(A.p4, A.p5), tance(B.p4, B.p5)
    t4 = max(t4a, t4b)
    moves: list[Move] = []
    cur = A
    if abs(t4 - t4a) > _COORD_TOL * max(1.0, abs(t4)):
        cur, mv = _move_34(cur, t4, tol)
        moves.append(mv)
    cur_b, s_back = B, None
    if abs(t4 - t4b) > _COORD_TOL * max(1.0, abs(t4)):
        cur_b, mv_b = _move_34(cur_b, t4, tol)
        s_back = mv_b.s
    prog, g = connect_triples(cur.triple(), cur_b.triple(), tol)
    cur = apply_pentagon_moves(cur, prog, tol)
    moves.extend(prog)
    # align the split pair: the works-before-g image of B's p4 sits on the
    # axis geodesic through (p4, p5)
    target = g.inv().apply(cur_b.p4, tol)
    if not projectively_equal(cur.p4, target, tol=1e-9):
        b45 = bending(cur.p4, cur.p5, tol)
        s_align = float(b45.point_parameter(target)[0])
        cur = Pentagon(*_bend(cur.points, "45", s_align, tol, b45), delta=cur.delta)
        moves.append(Move(pair="45", s=s_align))
    if s_back is not None:
        mv = Move(pair="34", s=-s_back)
        cur = apply_pentagon_moves(cur, [mv], tol)
        moves.append(mv)
    closed = cur.apply(g, tol)
    for p, q in zip(closed.points, B.points):
        if not projectively_equal(p, q, tol=1e-7):
            raise NotConjugate("pentagon connection failed to close")
    return moves, g
