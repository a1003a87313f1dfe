"""Triples of points: classification, moduli coordinates, surface moves.

A strongly regular triple is pinned down, up to holomorphic isometry, by the
signs of its points, the consecutive pairwise invariants t1 = ta(p1, p2) and
t2 = ta(p2, p3), the real shape invariant t, and the pair (alpha, beta).
These satisfy one relation,

    t1 t2 (t - 1)^2 + t1 + t2 - t1 t2 + beta - 1 + alpha^2 / (t1 t2) = 0,

so with signs and (alpha, beta) fixed the triples sweep a surface: two
sheets over the (t1, t2) region, distinguished by the sign of t - 1 and
glued along the ramification locus t = 1.  Bending a consecutive pair (both
points of the pair move, the third stays) preserves sigma, alpha, beta and
one coordinate while sweeping the other: these are the vertical and
horizontal lines used to connect triples.

A move bends one consecutive pair of a chain of points: "12" and "23" on a
triple, "34" and "45" as well on a pentagon.  `_bend` is the only code that
applies one; replaying a program bends whatever pair `bending` accepts,
while the coordinate moves, which solve a hyperbolic profile, require a
hyperbolic pair.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    Gram,
    LineType,
    Point,
    _chain_phases,
    _triple_invariants,
    form,  # unused here; the benchmark's tracing test reads triples.form
    gram,
    point,
    projectively_equal,
    realize_gram,
)
from .errors import (
    DegenerateTau,
    GeometryError,
    IncompatibleInvariants,
    InadmissibleCoords,
    NotConjugate,
    NotRegular,
    NotStronglyRegular,
    TraceMinusOne,
    Unreachable,
    _require,
)
from .isometry import (
    Isometry,
    _frame_map,
    _reflection_product,
    conjugator,
    reflection,
    star,
)
from .paths import Bending, _bend_targets, bending, hat


class TripleClass(enum.Enum):
    NOT_REGULAR = "not regular"
    REGULAR = "regular"
    STRONGLY_REGULAR = "strongly regular"
    REAL_STRONGLY_REGULAR = "real strongly regular"


@dataclass(frozen=True)
class Triple:
    p1: Point
    p2: Point
    p3: Point

    @property
    def points(self) -> tuple[Point, Point, Point]:
        return (self.p1, self.p2, self.p3)

    def gram(self) -> Gram:
        """The Gram matrix of the points, built on first use and kept."""
        if "_gram" not in self.__dict__:
            self.__dict__["_gram"] = gram(self.points)
        return self.__dict__["_gram"]

    def apply(self, g: Isometry, tol: float = DEFAULT_TOL) -> "Triple":
        return Triple(*(g.apply(p, tol) for p in self.points))

    def product(self) -> Isometry:
        """The isometry R(p3) R(p2) R(p1)."""
        return Isometry(_reflection_product(self.points))


def triple(p1: Point, p2: Point, p3: Point) -> Triple:
    return Triple(p1, p2, p3)


def classify_triple(T: Triple, tol: float = DEFAULT_TOL) -> TripleClass:
    """Regularity class of a triple.

    Two positive points, a vanishing consecutive pairing, or three points on
    a common real geodesic break regularity; vanishing beta (degenerate
    Gram) or a real configuration with a positive point stop short of strong
    regularity; otherwise alpha separates the real locus from the generic
    one.
    """
    if sum(1 for p in T.points if p.sign > 0) >= 2:
        return TripleClass.NOT_REGULAR
    m = T.gram().m
    if min(abs(m[0, 1]), abs(m[1, 2])) <= tol:
        return TripleClass.NOT_REGULAR
    *_, a, b = _triple_invariants(m, tol)
    if abs(a) <= tol and abs(b) <= tol:
        # at most one positive point and g12 != 0: p1 and p2 coincide or
        # span a hyperbolic line, and a real degenerate Gram puts p3 on
        # their real geodesic
        return TripleClass.NOT_REGULAR
    if abs(b) <= tol:
        return TripleClass.REGULAR
    if abs(a) <= tol:
        if any(p.sign > 0 for p in T.points):
            return TripleClass.REGULAR
        return TripleClass.REAL_STRONGLY_REGULAR
    return TripleClass.STRONGLY_REGULAR


@dataclass(frozen=True)
class SCoords:
    """Surface coordinates of a strongly regular triple."""

    t: float
    t1: float
    t2: float
    sigma: tuple[int, int, int]
    alpha: float
    beta: float

    @property
    def sheet(self) -> int:
        return 1 if self.t >= 1.0 else -1

    def residual(self) -> float:
        t1t2 = self.t1 * self.t2
        return (
            t1t2 * (self.t - 1.0) ** 2
            + self.t1
            + self.t2
            - t1t2
            + self.beta
            - 1.0
            + self.alpha**2 / t1t2
        )


def validate_coords(c: SCoords, tol: float = 1e-8) -> None:
    """Raise InadmissibleCoords unless c describes a strongly regular triple."""
    s1, s2, s3 = c.sigma
    if any(s not in (-1, 1) for s in c.sigma):
        raise InadmissibleCoords("signs must be +-1")
    if sum(1 for s in c.sigma if s > 0) > 1:
        raise InadmissibleCoords("at most one positive point is allowed")
    for name, tval, ss in (("t1", c.t1, s1 * s2), ("t2", c.t2, s2 * s3)):
        if tval * ss <= 0:
            raise InadmissibleCoords(f"{name} must have the sign of the pair")
        if ss > 0 and tval <= 1.0:
            raise InadmissibleCoords(
                f"{name} <= 1 makes the equal-sign pair non-hyperbolic"
            )
    if c.beta * s1 * s2 * s3 >= 0:
        raise InadmissibleCoords("beta has the wrong sign for signature (2, 1)")
    if abs(c.alpha) <= tol and any(s > 0 for s in c.sigma):
        raise InadmissibleCoords("a real configuration with a positive point")
    scale = max(1.0, abs(c.t1 * c.t2) * (1.0 + (c.t - 1.0) ** 2))
    _require(abs(c.residual()), tol * scale, InadmissibleCoords, "surface residual")


def _invariants(T: Triple, tol: float = DEFAULT_TOL) -> tuple[float, ...]:
    """(t1, t2, t, alpha, beta) of T from its Gram; DegenerateTau where the
    shape ratio, and so t, is undefined."""
    t1, t2, tau, a, b = _triple_invariants(T.gram().m, tol)
    if tau is None:
        raise DegenerateTau("g12 * g23 vanishes, shape ratio undefined")
    return t1, t2, tau.real, a, b


def s_coords(T: Triple, tol: float = DEFAULT_TOL) -> SCoords:
    """Surface coordinates of a (real) strongly regular triple."""
    cls = classify_triple(T, tol)
    if cls not in (TripleClass.STRONGLY_REGULAR, TripleClass.REAL_STRONGLY_REGULAR):
        raise NotStronglyRegular(f"triple is {cls.value}")
    t1, t2, t, a, b = _invariants(T, tol)
    return SCoords(
        t=t, t1=t1, t2=t2, sigma=tuple(p.sign for p in T.points), alpha=a, beta=b
    )


def standard_gram(c: SCoords) -> np.ndarray:
    """The Gram matrix with positive consecutive pairings realizing c."""
    s1, s2, s3 = c.sigma
    g12 = np.sqrt(c.t1 * s1 * s2)
    g23 = np.sqrt(c.t2 * s2 * s3)
    tau_c = c.t - 1j * c.alpha / (c.t1 * c.t2)
    g13 = tau_c * g12 * g23 * s2
    return np.array(
        [
            [s1, g12, g13],
            [g12, s2, g23],
            [np.conj(g13), g23, s3],
        ]
    )


def triple_from_coords(c: SCoords, tol: float = DEFAULT_TOL) -> Triple:
    """A triple with the given surface coordinates (InadmissibleCoords if none)."""
    validate_coords(c)
    vecs = realize_gram(standard_gram(c), tol)
    return Triple(*(point(v, tol) for v in vecs))


def _standard_cols(T: Triple) -> np.ndarray:
    """Representatives re-phased so consecutive pairings are real positive.

    Triples with equal surface coordinates get bases with equal Grams, so
    the change of basis between them is the conjugating isometry.
    """
    reps = np.array([p.rep for p in T.points])
    return (_chain_phases(T.gram().m)[:, None] * reps).T


def _sheet_gap(t1: float, t2: float, alpha: float, beta: float) -> float:
    """(t - 1)^2 over (t1, t2) by the surface relation; negative off it."""
    t1t2 = t1 * t2
    return 1.0 - (t1 + t2 + beta - 1.0) / t1t2 - alpha**2 / t1t2**2


def decompose_three_reflections(F: Isometry, tol: float = DEFAULT_TOL) -> Triple:
    """A triple whose reflections multiply to F: R(p3) R(p2) R(p1) = F.

    The trace of F fixes alpha and beta; a balanced point on the matching
    surface is realized for each admissible sign pattern and transported
    onto F by a conjugator.  Raises TraceMinusOne for trace -1 (reflections
    and other undecomposable classes) and NotConjugate when no pattern's
    class matches (same-trace elliptic classes differ by their sign data).
    """
    tr = F.trace
    if abs(tr + 1.0) <= tol:
        raise TraceMinusOne("trace -1 admits no three-reflection decomposition")
    a = tr.imag / 8.0
    b = (tr.real + 1.0) / 4.0
    if b > tol:
        patterns = [(-1, -1, -1)]
    elif b < -tol:
        patterns = [(1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    else:
        patterns = [(-1, -1, -1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
    failure: Exception | None = None
    for sigma in patterns:
        s1, s2, s3 = sigma
        g = 2.0
        for _ in range(20):
            t1, t2 = s1 * s2 * g * g, s2 * s3 * g * g
            gap = _sheet_gap(t1, t2, a, b)
            if gap >= 0.25:
                break
            g *= 2.0
        t = 1.0 + np.sqrt(gap)
        # g is a power of two, so both consecutive pairings come out as g
        # exactly; validate_coords is skipped, it rejects |beta| <= tol
        G = standard_gram(SCoords(t, t1, t2, sigma, a, b))
        pts = [point(v, tol) for v in realize_gram(G, tol)]
        f0 = Isometry(_reflection_product(pts))
        try:
            h = conjugator(f0, F, tol)
        except (NotConjugate, NotRegular) as err:
            failure = err
            continue
        return Triple(*(h.apply(p, tol) for p in pts))
    raise NotConjugate(
        f"no admissible sign pattern matches the input ({failure})"
    )


@dataclass(frozen=True)
class Move:
    """One bending move: the consecutive pair bent, and by how much."""

    pair: str
    s: float


BendProgram = list[Move]


#: The first point's index in each consecutive pair a move can bend.
_PAIR_START = {"12": 0, "23": 1, "34": 2, "45": 3}

#: The coordinate each bending pair sweeps: pair 12 moves t2, pair 23 moves t1.
_SWEPT = {"12": "t2", "23": "t1"}


def _bend(points, pair: str, s: float, tol: float, b: Bending | None = None) -> tuple:
    """The points with the consecutive pair `pair` moved by its bending at s.

    Every move on triples, pentagons and holonomy loops goes through here.
    `b` is the pair's bending when the caller has already built it.  Raises
    ValueError for a pair the chain lacks.
    """
    i = _PAIR_START.get(pair)
    if i is None or i + 2 > len(points):
        raise ValueError(f"unknown pair {pair!r} for {len(points)} points")
    if b is None:
        b = bending(points[i], points[i + 1], tol)
    g = b.evaluate(s)
    out = list(points)
    out[i] = g.apply(points[i], tol)
    out[i + 1] = g.apply(points[i + 1], tol)
    return tuple(out)


def apply_bend_program(T: Triple, moves, tol: float = DEFAULT_TOL) -> Triple:
    pts = T.points
    for mv in moves:
        pts = _bend(pts, mv.pair, mv.s, tol)
    return Triple(*pts)


def _coordinate_move(
    T: Triple,
    pair: str,
    target: float,
    sheet: int | None = None,
    tol: float = DEFAULT_TOL,
) -> tuple[Triple, Move]:
    """Bend `pair` until the tracked coordinate hits `target`.

    Pair "12" tracks t2 = ta(p2, p3) (a vertical line, t1 frozen); pair "23"
    tracks t1 = ta(p1, p2) (a horizontal line, t2 frozen).  Each reachable
    target has one preimage per sheet; `sheet` picks by the sign of t - 1,
    None keeps the current sheet.
    """
    if pair not in _SWEPT:
        raise ValueError(f"unknown pair {pair!r} for a triple")
    i = _PAIR_START[pair]
    b = bending(T.points[i], T.points[i + 1], tol)
    if b.kind is not LineType.HYPERBOLIC:
        raise ValueError(f"pair {pair} does not span a hyperbolic line")
    fixed = T.p3 if pair == "12" else T.p1
    cand_s = _bend_targets(b, T.p2, fixed, target, tol)
    best: tuple[float, Triple, float] | None = None
    for s in cand_s:
        cand = Triple(*_bend(T.points, pair, s, tol, b))
        tc = _invariants(cand)[2]
        if sheet is None:
            score = -abs(tc - _invariants(T)[2])
        else:
            score = sheet * (tc - 1.0)
        if best is None or score > best[0]:
            best = (score, cand, s)
    return best[1], Move(pair=pair, s=best[2])


def vertical_line(
    T: Triple, t2_target: float, sheet: int | None = None, tol: float = DEFAULT_TOL
) -> tuple[Triple, Move]:
    """Move along {t1 = const} to the requested t2 (bending the pair 12)."""
    return _coordinate_move(T, "12", t2_target, sheet, tol)


def horizontal_line(
    T: Triple, t1_target: float, sheet: int | None = None, tol: float = DEFAULT_TOL
) -> tuple[Triple, Move]:
    """Move along {t2 = const} to the requested t1 (bending the pair 23)."""
    return _coordinate_move(T, "23", t1_target, sheet, tol)


#: Relative accuracy of the S-coordinates that connect_triples promises for
#: the replayed program followed by its isometry.
CLOSURE_TOL = 1e-8

#: Relative difference below which a coordinate already sits on its target
#: and its move is skipped.
_COORD_TOL = 1e-11


def _bend_onto(
    A: Triple, ca: SCoords, cb: SCoords, first: str, tol: float
) -> tuple[BendProgram, Triple]:
    """Bend A onto B's coordinates: pair `first`, then the other pair.

    The first leg hits the coordinate `first` sweeps; when that target is
    below the profile minimum, the other coordinate is doubled until it
    comes into reach.  The second leg lands on B's sheet, stepping away and
    back when the coordinates already match but the sheet does not.
    """
    second = "12" if first == "23" else "23"
    x1, x2 = _SWEPT[first], _SWEPT[second]
    moves: BendProgram = []
    cur = A

    target = getattr(cb, x1)
    if abs(getattr(ca, x1) - target) > _COORD_TOL * max(1.0, abs(target)):
        try:
            cur, mv = _coordinate_move(cur, first, target, None, tol)
            moves.append(mv)
        except Unreachable:
            # raise the other coordinate until the target becomes reachable,
            # then commit that single leg followed by the first one
            y = getattr(s_coords(cur, tol), x2)
            done = False
            for _ in range(60):
                y *= 2.0
                lifted, mv_lift = _coordinate_move(cur, second, y, None, tol)
                try:
                    lifted, mv = _coordinate_move(lifted, first, target, None, tol)
                except Unreachable:
                    continue
                cur = lifted
                moves.extend([mv_lift, mv])
                done = True
                break
            if not done:
                raise Unreachable(f"target of pair {first} stayed out of reach")

    cc = s_coords(cur, tol)
    want_sheet = None if abs(cb.t - 1.0) <= tol else cb.sheet
    target = getattr(cb, x2)
    if abs(getattr(cc, x2) - target) > _COORD_TOL * max(1.0, abs(target)):
        cur, mv = _coordinate_move(cur, second, target, want_sheet, tol)
        moves.append(mv)
    elif want_sheet is not None and abs(cc.t - 1.0) > tol and cc.sheet != cb.sheet:
        # coordinates already match but the sheet does not: step away
        # and come back choosing the right preimage
        cur, mv = _coordinate_move(cur, second, 2.0 * target, None, tol)
        moves.append(mv)
        cur, mv = _coordinate_move(cur, second, target, want_sheet, tol)
        moves.append(mv)
    return moves, cur


def connect_triples(
    A: Triple, B: Triple, tol: float = DEFAULT_TOL
) -> tuple[BendProgram, Isometry]:
    """A bend program (at most three moves) and isometry carrying A onto B.

    Replaying the program on A and applying the isometry reproduces B: the
    S-coordinates of the result are within CLOSURE_TOL (1e-8) of B's,
    relative to max(1, |coordinate|), or NotConjugate is raised.  The
    error is estimated, not measured: the isometry's form residual times
    the largest squared representative norm of the bent triple.  That
    covers the isometry's roundoff only, not how far the moves landed from
    B's coordinates (bench connect seed 2, draw 217, 12 first: estimate
    3.7e-15, error 5.3e-10 at representative norm 3.5).

    The program bends pair 23 first and pair 12 second.  That order can
    drive the representatives far out, where the isometry's roundoff is
    amplified by their squared norm; when its estimated error exceeds
    `tol`, the other order (12 first, then 23 onto B's sheet) is built as
    well and the one with the smaller estimate is kept.  Raises
    IncompatibleInvariants when the sign patterns or the pair (alpha, beta)
    differ: those are constant on the surface.
    """
    ca, cb = s_coords(A, tol), s_coords(B, tol)
    if ca.sigma != cb.sigma:
        raise IncompatibleInvariants(f"sign patterns {ca.sigma} != {cb.sigma}")
    # np.max, unlike the builtin, propagates a NaN difference
    diff = float(np.max(np.abs([ca.alpha - cb.alpha, ca.beta - cb.beta])))
    inv_tol = 1e-7 * max(1.0, abs(ca.beta))
    _require(diff, inv_tol, IncompatibleInvariants, "alpha/beta mismatch")

    best = None
    for first in ("23", "12"):
        try:
            moves, cur = _bend_onto(A, ca, cb, first, tol)
        except GeometryError:
            if best is None:  # the first order's failure is the caller's
                raise
            break
        pa = _standard_cols(cur)
        g = _frame_map(pa, _standard_cols(B))
        residual = float(np.abs(star(g.m) @ g.m - np.eye(3)).max())
        est = residual * float(np.max(np.sum(np.abs(pa) ** 2, axis=0)))
        if best is None or est < best[3]:
            best = (moves, cur, g, est)
        if est <= tol:
            break
    moves, cur, g, est = best
    _require(est, CLOSURE_TOL, NotConjugate, "estimated closure error")
    for pc, pt in zip(cur.points, B.points):
        if not projectively_equal(g.apply(pc), pt, 1e-6):
            raise NotConjugate("connected triple does not match the target")
    return moves, g


def tangent_ef_residual(T: Triple, tg1, tg2, tg3) -> float:
    """Residual of the product-preserving tangency condition.

    A triple deformation (tg1, tg2, tg3) keeps R(p3) R(p2) R(p1) fixed to
    first order iff -hat(tg3) + hat(tg2) + R2 hat(tg1) R2 vanishes.
    """
    r2 = reflection(T.p2).m
    m = -hat(tg3) + hat(tg2) + r2 @ hat(tg1) @ r2
    return float(np.abs(m).max())
