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
    tance,
)
from .errors import (
    DifferentDelta,
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
from .paths import bending
from .triples import (
    GAP_TOL,
    Move,
    SCoords,
    Triple,
    _admits,
    _bend,
    _closure_gap,
    _connect_triples,
    _coordinate_move,
    _off_target,
    _replay,
    _require_same_signs,
    _sheet_gap,
    decompose_three_reflections,
    triple_from_coords,
)

#: The relation tolerance: verify_pentagon bounds the off-center residual of
#: R5 R4 R3 R2 R1 by it (relative), and pentagon, jsonio.decode_pentagon
#: and `chg pentagon verify` read pentagons at it by default.
RELATION_TOL = 1e-8


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


def verify_pentagon(points, tol: float = RELATION_TOL) -> CubeRoot:
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


def pentagon(p1, p2, p3, p4, p5, tol: float = RELATION_TOL) -> Pentagon:
    """Validated pentagon from five points."""
    delta = verify_pentagon((p1, p2, p3, p4, p5), tol)
    return Pentagon(p1, p2, p3, p4, p5, delta)


def build_pentagon(
    delta: CubeRoot, p4: Point, p5: Point, tol: float = DEFAULT_TOL
) -> Pentagon:
    """Complete (p4, p5) to a pentagon with central value delta.

    The first three points are a three-reflection decomposition of
    delta R(p4) R(p5); errors from the decomposition (non-regular or
    undecomposable products) propagate.  The result is checked at
    RELATION_TOL, the tolerance `jsonio` and `chg pentagon verify` read
    pentagons at.
    """
    f = Isometry(delta.value * _reflection_product((p5, p4)))
    T = decompose_three_reflections(f, tol)
    return pentagon(T.p1, T.p2, T.p3, p4, p5)


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
    conj(delta) R3 R2 R1.  Raises InadmissibleModuli when t4 <= 1, when
    (t1, t2) is outside that surface's admissible region (triples._admits:
    t1 < 0 < 1 < t2 and the relation's (t - 1)^2 nonnegative), and for the
    central value 1, whose products have no (+1, -1, -1) triples.
    """
    t1, t2, t4 = (float(v) for v in m)
    if delta.k not in (1, 2):
        raise InadmissibleModuli("the chart covers the nontrivial central values")
    if sheet not in (1, -1):
        raise ValueError(f"sheet must be +-1, got {sheet!r}")
    if not t4 > 1.0:
        raise InadmissibleModuli(f"moduli need t4 > 1; got t4 = {t4:.6g}")
    sign = 1.0 if delta.k == 1 else -1.0
    alpha = sign * np.sqrt(3.0) * (4.0 * t4 - 1.0) / 16.0
    beta = (3.0 - 4.0 * t4) / 8.0
    if not _admits(t1, t2, (1, -1, -1), alpha, beta):
        raise InadmissibleModuli(f"(t1, t2) = ({t1:.6g}, {t2:.6g}) is not admissible")
    gap = _sheet_gap(t1, t2, alpha, beta)
    c = SCoords(
        t=1.0 + sheet * float(np.sqrt(gap)),
        t1=t1,
        t2=t2,
        sigma=(1, -1, -1),
        alpha=float(alpha),
        beta=float(beta),
    )
    # the chart's tests imply validate_coords': _admits' pair rule on the
    # pattern (+1, -1, -1), beta < 0 and |alpha| > 0 from t4 > 1, and t on
    # the surface up to roundoff
    T = triple_from_coords(c, tol)
    g = Isometry(np.conj(delta.value) * T.product().m)
    x1, x2 = split_two_reflections(g, s5, tol)
    return Pentagon(T.p1, T.p2, T.p3, x2, x1, delta)


def is_real_pentagon(P: Pentagon) -> bool:
    """Whether the five points sit on a common real plane.

    Tested gauge-invariantly: in the chain gauge c of _chain_phases, where
    consecutive pairings are real positive, the Gram matrix
    c_j conj(c_k) G[j, k] must be real, its imaginary parts at most 1e-8
    times max(1, max|G|).
    """
    G = P.gram().m
    c = _chain_phases(G)
    G = c[:, None] * G * c.conj()
    return float(np.abs(G.imag).max()) <= 1e-8 * max(1.0, float(np.abs(G).max()))


def _move_34(P: Pentagon, t4_target: float, tol: float) -> tuple[Pentagon, Move]:
    """Bend the pair (p3, p4) until ta(p4, p5) = t4_target.

    This is the vertical line of the sub-triple (p3, p4, p5): its pair 12
    move, kept on that triple's own sheet.  Along it the tracked pairing
    is 2 c1 c2 cosh(2 (th - th_min)) + k, symmetric about its minimum, so
    the preimage on the current side of the minimum, which _HIGH_SHEET
    puts on the own sheet, is also the one of least |s|.
    """
    U, mv = _coordinate_move(Triple(P.p3, P.p4, P.p5), "12", t4_target, None, tol)
    return Pentagon(P.p1, P.p2, *U.points, delta=P.delta), Move("34", mv.s)


def apply_pentagon_moves(P: Pentagon, moves, tol: float = DEFAULT_TOL) -> Pentagon:
    """Replay bending moves on the pairs 12, 23, 34 and 45."""
    return Pentagon(*_replay(P.points, moves, tol), delta=P.delta)


def connect_pentagons(
    A: Pentagon, B: Pentagon, tol: float = DEFAULT_TOL
) -> tuple[list[Move], Isometry]:
    """A move program (at most six) and isometry carrying A onto B.

    Both pentagons first slide to the ta(p4, p5) of larger modulus (one
    34 move each, the one on B undone at the end), the triples are then
    connected on the surface, and a single 45 move aligns the split pair
    along the shared axis.  Every leg is skipped by one rule,
    `_off_target` on what the leg moves: the 34 legs on ta(p4, p5), the
    45 leg on its own parameter, read from the bending of (p4, p5),
    against 0.  Raises DifferentDelta for distinct central values, then
    IncompatibleInvariants, before any move, when the five sign patterns
    differ (`triples._require_same_signs`), and the triple stage raises it
    for unmatched (alpha, beta).  The moved pentagon is checked against B
    by the closure gap of connect_triples, the largest phase-aligned
    distance between unit representatives, over the five points: above
    GAP_TOL (1e-7, or NaN) it raises NotConjugate carrying the gap as
    `value` and GAP_TOL as `bound`.
    """
    if A.delta.k != B.delta.k:
        raise DifferentDelta(f"central values differ: k={A.delta.k} vs k={B.delta.k}")
    _require_same_signs(A.points, B.points)
    t4a, t4b = tance(A.p4, A.p5), tance(B.p4, B.p5)
    # the 34 bend reaches every ta(p4, p5) above a least one when p4 and p5
    # share a sign (ta >= 0) and every one below a greatest one when they do
    # not (ta <= 0): either way both pentagons reach the level of larger
    # modulus
    t4 = max(t4a, t4b, key=abs)
    moves: list[Move] = []
    cur = A
    if _off_target(t4a, t4):
        cur, mv = _move_34(cur, t4, tol)
        moves.append(mv)
    cur_b, s_back = B, None
    if _off_target(t4b, t4):
        cur_b, mv_b = _move_34(cur_b, t4, tol)
        s_back = mv_b.s
    # pairs 12 and 23 leave p4 and p5 where they are
    prog, bent, g = _connect_triples(cur.triple(), cur_b.triple(), tol)
    cur = Pentagon(*bent.points, cur.p4, cur.p5, delta=cur.delta)
    moves.extend(prog)
    # align the split pair: the works-before-g image of B's p4 sits on the
    # axis geodesic through (p4, p5)
    target = g.inv().apply(cur_b.p4, tol)
    b45 = bending(cur.p4, cur.p5, tol)
    s_align = float(b45.point_parameter(target)[0])
    if _off_target(s_align, 0.0):
        cur = Pentagon(*_bend(cur.points, "45", s_align, tol, b45), delta=cur.delta)
        moves.append(Move(pair="45", s=s_align))
    if s_back is not None:
        mv = Move(pair="34", s=-s_back)
        cur = apply_pentagon_moves(cur, [mv], tol)
        moves.append(mv)
    _require(_closure_gap(g, cur.points, B.points), GAP_TOL, NotConjugate, "closure gap")
    return moves, g
