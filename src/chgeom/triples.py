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

The coordinate moves read three facts off this surface: which preimage of
a target lies on which sheet, from the bending's orientation (_HIGH_SHEET);
whether a target is reachable, from the admissible region (_admits: each
coordinate in its pair's range, _pair_admits, and the relation's
(t - 1)^2, _sheet_gap, nonnegative there); and that a change of sheet at
fixed (t1, t2) is one bend to the mirror preimage.

A move bends one consecutive pair of a chain of points: "12" and "23" on a
triple, "34" and "45" as well on a pentagon.  `_bend` is the only code that
applies one; replaying a program bends whatever pair `bending` accepts,
while the coordinate moves, which solve a hyperbolic profile, require a
hyperbolic pair.  `_coordinate_move` is the only code that solves for a
level: the pentagon's 34 move is the vertical line of its sub-triple
(p3, p4, p5).

A triple's invariants come from its Gram by two readers of core:
_triple_invariants gives (t1, t2, alpha, beta), and _shape_ratio gives the
complex shape ratio, whose real part is t, or raises DegenerateTau.
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
    _shape_ratio,
    _triple_invariants,
    form,
    gram,
    point,
    realize_gram,
)
from .errors import (
    GeometryError,
    IncompatibleInvariants,
    InadmissibleCoords,
    NotConjugate,
    NotRegular,
    NotStronglyRegular,
    TraceMinusOne,
    Unreachable,
    _require,
    _require_above,
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
    one.  Reality is read by _reads_real, whose band allows for the
    rounding of the representatives: a real triple moved far by an isometry
    still reads real.
    """
    return _classify(T, _triple_invariants(T.gram().m), tol)


_EPS = float(np.finfo(float).eps)


def _reads_real(alpha: float, kappa: float, tol: float) -> bool:
    """Whether alpha reads as zero: |alpha| <= tol + 32 eps kappa.

    kappa is the largest squared euclidean norm of the representatives
    alpha was read from (1 for bare coordinates).  alpha is a sum of
    products of three Gram entries, so rounding the representatives alone
    leaves it a few eps kappa off zero on a real configuration.  On the
    default_rng(99) draws of random_strongly_regular_triple moved by
    random_isometry at scales 1 to 3 (test_moved_triples_keep_their_rank),
    real triples read |alpha| / (eps kappa) up to 6.2, and 6.8 on numpy's
    baseline SIMD dispatch; generic ones read 1.7e6 or more.  c = 32
    leaves about 4.7x over the worst real reading.
    """
    return abs(alpha) <= tol + 32.0 * _EPS * kappa


def _kappa(points) -> float:
    """The largest squared euclidean norm of the points' representatives: a
    self-product is +-1, so |rep|^2 = sign + 2 |rep[2]|^2."""
    return float(max(p.sign + 2.0 * abs(p.rep[2]) ** 2 for p in points))


def _classify(T: Triple, inv: tuple, tol: float) -> TripleClass:
    """classify_triple(T) from inv = _triple_invariants of T's Gram."""
    if sum(1 for p in T.points if p.sign > 0) >= 2:
        return TripleClass.NOT_REGULAR
    m = T.gram().m
    if min(abs(m[0, 1]), abs(m[1, 2])) <= tol:
        return TripleClass.NOT_REGULAR
    *_, a, b = inv
    real = _reads_real(a, _kappa(T.points), tol)
    if real and abs(b) <= tol:
        # at most one positive point and g12 != 0: p1 and p2 coincide or
        # span a hyperbolic line, and a real degenerate Gram puts p3 on
        # their real geodesic
        return TripleClass.NOT_REGULAR
    if abs(b) <= tol:
        return TripleClass.REGULAR
    if real:
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
        return _sheet_of(self.t)

    def residual(self) -> float:
        """The surface relation's left side: t1 t2 ((t - 1)^2 - _sheet_gap).

        sampling.random_strongly_regular_coords keeps its own solve for
        beta: it draws the bench and test inputs, whose bits must not move
        with the rounding of this form.
        """
        t1t2 = self.t1 * self.t2
        gap = _sheet_gap(self.t1, self.t2, self.alpha, self.beta)
        return t1t2 * ((self.t - 1.0) * (self.t - 1.0) - gap)


#: The sign patterns of strongly regular triples: all negative first, then
#: the positive point at p1, p2, p3.
_SIGN_PATTERNS = ((-1, -1, -1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def _sheet_of(t: float) -> int:
    """The sheet of shape invariant t: +1 for t >= 1, else -1."""
    return 1 if t >= 1.0 else -1


#: Relative accuracy of S-coordinates: the bound on connect_triples'
#: estimated error, and what validate_coords and triple_from_coords hold
#: coordinates to.
CLOSURE_TOL = 1e-8


def validate_coords(c: SCoords, tol: float = DEFAULT_TOL) -> None:
    """Raise InadmissibleCoords unless c describes a strongly regular triple.

    Each of t1 and t2 must lie in its pair's range (_pair_admits): it has
    the sign of the pair's sign product and exceeds 1 when that is +1.
    alpha reads as zero by _reads_real, the test classify_triple makes,
    with kappa = 1 since coordinates have no representatives, so a
    positive point needs |alpha| > tol + 32 eps.  The surface relation's
    residual is bounded by CLOSURE_TOL times max(1, |t1 t2| (1 + (t - 1)^2)),
    a scale capped at the largest float.
    """
    s1, s2, s3 = c.sigma
    if any(s not in (-1, 1) for s in c.sigma):
        raise InadmissibleCoords("signs must be +-1")
    if sum(1 for s in c.sigma if s > 0) > 1:
        raise InadmissibleCoords("at most one positive point is allowed")
    for name, tval, ss in (("t1", c.t1, s1 * s2), ("t2", c.t2, s2 * s3)):
        if not _pair_admits(tval, ss):
            raise InadmissibleCoords(f"{name} = {tval:.6g} is outside its pair's range")
    if c.beta * s1 * s2 * s3 >= 0:
        raise InadmissibleCoords("beta has the wrong sign for signature (2, 1)")
    if _reads_real(c.alpha, 1.0, tol) and any(s > 0 for s in c.sigma):
        raise InadmissibleCoords("a real configuration with a positive point")
    # the squares are products, which overflow to inf; an inf scale is
    # capped, since the residual it would bound is then inf as well
    scale = abs(c.t1 * c.t2) * (1.0 + (c.t - 1.0) * (c.t - 1.0))
    bound = CLOSURE_TOL * min(max(1.0, scale), np.finfo(float).max)
    _require(abs(c.residual()), bound, InadmissibleCoords, "surface residual")


def _invariants(T: Triple, tol: float = DEFAULT_TOL) -> tuple[float, ...]:
    """(t1, t2, t, alpha, beta) of T from its Gram; DegenerateTau where the
    shape ratio, and so t, is undefined."""
    m = T.gram().m
    t1, t2, a, b = _triple_invariants(m)
    return t1, t2, _shape_ratio(m, tol).real, a, b


def s_coords(T: Triple, tol: float = DEFAULT_TOL) -> SCoords:
    """Surface coordinates of a (real) strongly regular triple."""
    m = T.gram().m
    inv = _triple_invariants(m)
    cls = _classify(T, inv, tol)
    if cls not in (TripleClass.STRONGLY_REGULAR, TripleClass.REAL_STRONGLY_REGULAR):
        raise NotStronglyRegular(f"triple is {cls.value}")
    t1, t2, a, b = inv
    t = _shape_ratio(m, tol).real
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
    """A triple with the given surface coordinates (InadmissibleCoords if none).

    The coordinates are validated at `tol`, and the triple built is read
    back by s_coords.  InadmissibleCoords is raised when it is not strongly
    regular: realize_gram drops a Gram eigenvalue of at most tol relative,
    so a |beta| near tol can read back as zero.  It is raised as well, with
    the miss as `value` and CLOSURE_TOL as `bound`, when a coordinate
    misses c's by more than CLOSURE_TOL relative to max(1, |coordinate|).
    """
    validate_coords(c, tol)
    T = _standard_triple(c, tol)
    try:
        r = s_coords(T, tol)
    except NotStronglyRegular as err:
        raise InadmissibleCoords(f"read back, the {err}") from err
    want = np.array([c.t, c.t1, c.t2, c.alpha, c.beta])
    miss = np.abs([r.t, r.t1, r.t2, r.alpha, r.beta] - want) / np.maximum(1.0, abs(want))
    _require(float(miss.max()), CLOSURE_TOL, InadmissibleCoords, "read-back miss")
    return T


def _standard_triple(c: SCoords, tol: float = DEFAULT_TOL) -> Triple:
    """The triple realizing standard_gram(c), for coordinates already known
    to be admissible: read off a triple by s_coords, or built to order."""
    return Triple(*(point(v, tol) for v in realize_gram(standard_gram(c), tol)))


def _standard_cols(T: Triple) -> np.ndarray:
    """Representatives re-phased so consecutive pairings are real positive.

    Triples with equal surface coordinates get bases with equal Grams, so
    the change of basis between them is the conjugating isometry.
    """
    reps = np.array([p.rep for p in T.points])
    return (_chain_phases(T.gram().m)[:, None] * reps).T


def _sheet_gap(t1: float, t2: float, alpha: float, beta: float) -> float:
    """(t - 1)^2 over (t1, t2) by the surface relation; negative off it.

    The squares are products: a float ** that overflows raises, a product
    gives inf.
    """
    t1t2 = t1 * t2
    return 1.0 - (t1 + t2 + beta - 1.0) / t1t2 - alpha * alpha / (t1t2 * t1t2)


def _pair_admits(t: float, ss: int) -> bool:
    """Whether t is a consecutive pair's coordinate for sign product ss:
    it has the sign of ss, and exceeds 1 when ss > 0 (a hyperbolic pair)."""
    return t * ss > 0 and (ss < 0 or t > 1.0)


def _admits(t1: float, t2: float, sigma, alpha: float, beta: float) -> bool:
    """Whether (t1, t2) lies in the admissible region of the surface with
    signs sigma and (alpha, beta): each pair admits its coordinate, and
    the relation's (t - 1)^2, _sheet_gap, is nonnegative there."""
    s1, s2, s3 = sigma
    pairs = _pair_admits(t1, s1 * s2) and _pair_admits(t2, s2 * s3)
    return pairs and _sheet_gap(t1, t2, alpha, beta) >= 0.0


def decompose_three_reflections(F: Isometry, tol: float = DEFAULT_TOL) -> Triple:
    """A triple whose reflections multiply to F: R(p3) R(p2) R(p1) = F.

    The trace of F fixes alpha and beta; a balanced point on the matching
    surface is realized for each admissible sign pattern and transported
    onto F by a conjugator.  Raises TraceMinusOne for trace -1 (reflections
    and other undecomposable classes) and NotConjugate when no pattern's
    class matches (same-trace elliptic classes differ by their sign data).
    """
    tr = F.trace
    _require_above(abs(tr + 1.0), tol, TraceMinusOne, "|trace + 1|")
    a = tr.imag / 8.0
    b = (tr.real + 1.0) / 4.0
    # beta > tol admits only the all-negative pattern, the first, and
    # beta < -tol only the others
    failure: Exception | None = None
    for sigma in _SIGN_PATTERNS[b < -tol : 1 if b > tol else None]:
        s1, s2, s3 = sigma
        g = 2.0
        for _ in range(20):
            t1, t2 = s1 * s2 * g * g, s2 * s3 * g * g
            # |t1| = |t2| = g^2 >= 4 with the pairs' signs, so the pairs
            # admit them and the gap alone decides
            gap = _sheet_gap(t1, t2, a, b)
            if gap >= 0.25:
                break
            g *= 2.0
        t = 1.0 + np.sqrt(gap)
        # g is a power of two, so both consecutive pairings come out as g
        # exactly; validate_coords is skipped, it rejects |beta| <= tol
        T0 = _standard_triple(SCoords(t, t1, t2, sigma, a, b), tol)
        try:
            h = conjugator(T0.product(), F, tol)
        except (NotConjugate, NotRegular) as err:
            failure = err
            continue
        return T0.apply(h, tol)
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

#: The sheet of a coordinate move's preimage at the larger exponent (the
#: first of _bend_targets' two).  `bending`'s frame scales v1 by e^{-th}
#: and v2 by e^{th}; the moving point p2 is the second point of pair 12's
#: line but the first of pair 23's, so the orientation, and with it the
#: sheet, flips between the two pairs.
_HIGH_SHEET = {"12": 1, "23": -1}


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


def _replay(points, moves, tol: float) -> tuple:
    """The points with each move of the program applied in turn."""
    for mv in moves:
        points = _bend(points, mv.pair, mv.s, tol)
    return points


def apply_bend_program(T: Triple, moves, tol: float = DEFAULT_TOL) -> Triple:
    return Triple(*_replay(T.points, moves, tol))


def _coordinate_move(
    T: Triple,
    pair: str,
    target: float,
    sheet: int | None = None,
    tol: float = DEFAULT_TOL,
) -> tuple[Triple, Move]:
    """Bend `pair` until the tracked coordinate hits `target`.

    Pair "12" tracks t2 = ta(p2, p3) (a vertical line, t1 frozen); pair "23"
    tracks t1 = ta(p1, p2) (a horizontal line, t2 frozen).  A target above
    the profile minimum has two preimages, one per sheet; `sheet` picks by
    the sign of t - 1, and None keeps T's own sheet (_sheet_of T's t).
    The bending's orientation says which preimage is on which sheet: the
    first, at the larger exponent, is on _HIGH_SHEET[pair].  A target at
    the minimum has the one preimage on the ramification, and one below it
    raises Unreachable.
    """
    i = _PAIR_START[pair]
    b = bending(T.points[i], T.points[i + 1], tol)
    if b.kind is not LineType.HYPERBOLIC:
        raise ValueError(f"pair {pair} does not span a hyperbolic line")
    fixed = T.p3 if pair == "12" else T.p1
    cand_s = _bend_targets(b, T.p2, fixed, target, tol)
    s = cand_s[0]
    if len(cand_s) > 1:
        if sheet is None:
            sheet = _sheet_of(_shape_ratio(T.gram().m, tol).real)
        if sheet != _HIGH_SHEET[pair]:
            s = cand_s[1]
    return Triple(*_bend(T.points, pair, s, tol, b)), Move(pair=pair, s=s)


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


#: Relative difference below which a coordinate already sits on its target
#: and its move is skipped.
_COORD_TOL = 1e-11


def _off_target(x: float, target: float) -> bool:
    """Whether x misses target by more than _COORD_TOL relative to
    max(1, |target|), so that the move onto it is made."""
    return abs(x - target) > _COORD_TOL * max(1.0, abs(target))


def _bend_onto(
    A: Triple, ca: SCoords, cb: SCoords, first: str, tol: float
) -> tuple[BendProgram, Triple]:
    """Bend A onto B's coordinates: pair `first`, then the other pair.

    The first leg moves the coordinate `first` sweeps onto B's, with the
    other coordinate y frozen.  The surface relation says whether it can:
    the target is reachable iff _sheet_gap, (t - 1)^2 by the relation, is
    nonnegative at (target, y).  If it is not, y is doubled, at most 60
    times, until the relation admits the target, and a lift to that y is
    bent first.  The second leg lands on B's sheet; when the coordinates
    already match but the sheet does not, it is one bend to the mirror
    preimage.
    """
    second = "12" if first == "23" else "23"
    x1, x2 = _SWEPT[first], _SWEPT[second]
    moves: BendProgram = []
    cur = A

    target = getattr(cb, x1)
    if _off_target(getattr(ca, x1), target):
        # _sheet_gap is symmetric in t1 and t2, so the order of its
        # arguments does not matter; the pairs admit target (B's) and
        # every doubling of A's y, so the gap alone decides
        y, lifts = getattr(ca, x2), 0
        while _sheet_gap(target, y, ca.alpha, ca.beta) < 0.0:
            if lifts == 60:
                raise Unreachable(f"target of pair {first} stayed out of reach")
            y, lifts = 2.0 * y, lifts + 1
        if lifts:
            cur, mv = _coordinate_move(cur, second, y, None, tol)
            moves.append(mv)
        cur, mv = _coordinate_move(cur, first, target, None, tol)
        moves.append(mv)

    cc = s_coords(cur, tol)
    want_sheet = None if abs(cb.t - 1.0) <= tol else cb.sheet
    target = getattr(cb, x2)
    if _off_target(getattr(cc, x2), target) or (
        want_sheet is not None and abs(cc.t - 1.0) > tol and cc.sheet != cb.sheet
    ):
        cur, mv = _coordinate_move(cur, second, target, want_sheet, tol)
        moves.append(mv)
    return moves, cur


#: The bound on the closure gap (see _closure_gap) of both connectors: a
#: program and isometry whose replay lands farther from the target raise
#: NotConjugate.
GAP_TOL = 1e-7


def _require_same_signs(points, targets) -> None:
    """Raise IncompatibleInvariants, naming both sign patterns, unless each
    point has its target's sign.  No bend and no isometry changes a point's
    sign, so configurations whose signs differ are joined by no program."""
    sa, sb = (tuple(p.sign for p in ps) for ps in (points, targets))
    if sa != sb:
        raise IncompatibleInvariants(f"sign patterns {sa} != {sb}")


def connect_triples(
    A: Triple, B: Triple, tol: float = DEFAULT_TOL
) -> tuple[BendProgram, Isometry]:
    """A bend program (at most three moves) and isometry carrying A onto B.

    Raises IncompatibleInvariants, before any move, when the sign patterns
    differ, and when the pairs (alpha, beta) differ by more than 1e-7
    max(1, |beta|): signs, alpha and beta are constant on the surface.
    Moves and isometries keep them, so the replayed program followed by
    the isometry carries A's (alpha, beta), which may miss B's by up to
    that band, and B's t1, t2 and sheet, with the t the surface relation
    gives there.

    Its error against those coordinates is estimated, not measured: the
    isometry's form residual times the largest squared representative
    norm of the bent triple, and an estimate above CLOSURE_TOL (1e-8)
    raises NotConjugate.  It covers the isometry's roundoff only, not how
    far the moves landed (bench connect seed 2, draw 217, 12 first:
    estimate 3.7e-15, error 5.3e-10 at representative norm 3.5).  What is
    measured is the closure gap of `_closure_gap` between the moved triple
    and B: above GAP_TOL (1e-7, or NaN) it raises NotConjugate carrying
    the gap as `value` and GAP_TOL as `bound`.

    The program bends pair 23 first and pair 12 second.  That order can
    drive the representatives far out, where the isometry's roundoff is
    amplified by their squared norm; when its estimated error exceeds
    `tol` or CLOSURE_TOL, the other order (12 first, then 23 onto B's
    sheet) is built as well and the one with the smaller estimate is kept,
    so a looser `tol` never skips an order the closure check needs.
    """
    _require_same_signs(A.points, B.points)
    moves, bent, g = _connect_triples(A, B, tol)
    _require(_closure_gap(g, bent.points, B.points), GAP_TOL, NotConjugate, "closure gap")
    return moves, g


def _connect_triples(A: Triple, B: Triple, tol: float) -> tuple:
    """(program, A bent by it, isometry) as connect_triples finds them, for
    triples of equal signs, before the closure check; both are the
    caller's."""
    ca, cb = s_coords(A, tol), s_coords(B, tol)
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
        if est <= min(tol, CLOSURE_TOL):
            break
    _require(best[3], CLOSURE_TOL, NotConjugate, "estimated closure error")
    return best[:3]


def _closure_gap(g: Isometry, points, targets) -> float:
    """The largest |a u - b| over the unit representatives a of g applied
    to `points` and b of `targets`, where the phase u of c = <a, b>_E turns
    a onto b.  That is 2 sin(theta / 2) for the angle theta between the two
    lines: linear in the error, where 1 - cos theta is quadratic and
    cancels to zero below theta ~ 1e-8.  Zero when g carries each point
    onto its target, NaN when a representative is not finite."""
    a = np.array([p.rep for p in points]) @ g.m.T
    ab = np.concatenate((a, [q.rep for q in targets]))
    # a product, not a quotient: a NaN row then raises no FP warning
    ab *= 1.0 / np.linalg.norm(ab, axis=1, keepdims=True)
    a, b = ab[: len(a)], ab[len(a) :]
    # np.angle(0) is 0, and at c = 0 every phase gives the distance sqrt 2
    u = np.exp(1j * np.angle((a.conj() * b).sum(axis=1, keepdims=True)))
    # ndarray.max, unlike the builtin max, propagates a NaN
    return float(np.linalg.norm(a * u - b, axis=1).max())


def tangent_ef_residual(T: Triple, tg1, tg2, tg3) -> float:
    """Residual of the product-preserving tangency condition.

    A triple deformation (tg1, tg2, tg3) keeps R(p3) R(p2) R(p1) fixed to
    first order iff -hat(tg3) + hat(tg2) + R2 hat(tg1) R2 vanishes.
    """
    r2 = reflection(T.p2).m
    m = -hat(tg3) + hat(tg2) + r2 @ hat(tg1) @ r2
    return float(np.abs(m).max())
