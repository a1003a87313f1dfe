"""Paths of points, their lifts and flows, and bendings of point pairs.

A path of points admits a normalized lift: representative vectors chosen so
consecutive pairings are real and positive.  The velocity of such a lift,
made orthogonal to the base point, defines a tangent whose `hat` is a Lie
algebra element; integrating it along the path produces the isometry that
transports the reflection in the moving point.

A pair of points spanning a line carries a one-parameter bending group
preserving the line, of hyperbolic, spherical, or euclidean type with the
line.  Bendings are the elementary moves used everywhere downstream.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    J,
    SIGNATURE,
    LineType,
    Point,
    _cross,
    _minor_type,
    _norm,
    _pair_minor,
    _rephase,
    form,
    point,
    project_orthogonal,
    self_product,
    tance,
)
from .errors import (
    BendingOverflow,
    EqualPoints,
    EuclideanGeodesic,
    ExceptionalCase,
    NotOnGeodesic,
    OrthogonalPoints,
    SignChange,
    StepTooLarge,
    Unreachable,
    _require,
    _require_above,
)
from .isometry import (
    IDENTITY,
    Isometry,
    _ro,
    project_to_su,
    rank_one_map,
    star,
)


@dataclass(frozen=True)
class PathSample:
    """A sampled path of points with parameter values."""

    params: np.ndarray
    points: list[Point]

    def __len__(self) -> int:
        return len(self.points)


def path_sample(points, params=None) -> PathSample:
    points = list(points)
    if params is None:
        params = np.linspace(0.0, 1.0, len(points))
    params = np.asarray(params, dtype=float)
    if params.shape != (len(points),):
        raise ValueError("params and points lengths differ")
    return PathSample(params=_ro(params.copy()), points=points)


@dataclass(frozen=True)
class TangentAtPoint:
    """The tangent map x -> <x, base> * sign(base) * v, with v orthogonal
    to the base point.  Evaluated at the base vector it returns v itself, so
    v is the velocity of the curve base + eps * v."""

    base: Point
    v: np.ndarray

    def matrix(self) -> np.ndarray:
        return self.base.sign * rank_one_map(self.v, self.base)


def tangent(base: Point, v, tol: float = DEFAULT_TOL) -> TangentAtPoint:
    v = np.asarray(v, dtype=complex)
    if abs(form(v, base.rep)) > tol * max(1.0, float(np.linalg.norm(v))):
        raise ValueError("tangent vector is not orthogonal to its base point")
    return TangentAtPoint(base=base, v=_ro(v.copy()))


def hat(t: TangentAtPoint) -> np.ndarray:
    """The Lie algebra element t - star(t) attached to a tangent.

    Multiplying by the reflection in the base point recovers the derivative
    of the reflection: d/deps R(base + eps v) = 2 (t + star(t)) =
    2 hat(t) R(base), and hat anticommutes with that reflection.
    """
    m = t.matrix()
    return m - star(m)


def _same_sign(points) -> int:
    sign = points[0].sign
    for p in points[1:]:
        if p.sign != sign:
            raise SignChange("path crosses the isotropic cone")
    return sign


#: Largest euclidean angle, in radians, between consecutive path samples
#: whose phases can be aligned reliably.
_MAX_STEP_ANGLE = 0.2


def normalized_lift(path) -> np.ndarray:
    """Lift a path of points to vectors with real positive consecutive pairing.

    Returns an (n, 3) array c with c[0] the first point's representative and
    <c[k], c[k+1]> a positive multiple of the common sign.  Raises
    StepTooLarge when consecutive samples are further apart than
    _MAX_STEP_ANGLE (0.2 radians of euclidean angle; the phase alignment
    would be unreliable), SignChange when the points change sign.

    Neither test depends on the unit phases of the lift, so both run on the
    raw representatives r_k; the lift is c_k = phase_k r_k with phase_k the
    running product of sign * <r_{k-1}, r_k> / |<r_{k-1}, r_k>|.
    """
    points = path.points if isinstance(path, PathSample) else list(path)
    sign = _same_sign(points)
    reps = np.concatenate([p.rep for p in points]).reshape(-1, 3)
    prev, nxt = reps[:-1], reps[1:]
    cosang = np.minimum(
        1.0,
        np.abs(np.einsum("ki,ki->k", prev.conj(), nxt))
        / (np.linalg.norm(prev, axis=1) * np.linalg.norm(nxt, axis=1)),
    )
    ang = np.arccos(cosang)
    w = form(prev, nxt)
    absw = np.abs(w)
    bad = np.flatnonzero((ang > _MAX_STEP_ANGLE) | (absw < 1e-12))
    if bad.size:
        k = int(bad[0])
        if ang[k] > _MAX_STEP_ANGLE:
            raise StepTooLarge(
                f"samples {k} and {k + 1} are {ang[k]:.3f} rad apart",
                value=float(ang[k]),
                bound=_MAX_STEP_ANGLE,
            )
        raise StepTooLarge("consecutive samples are nearly orthogonal")
    phase = np.empty(len(points), dtype=complex)
    phase[0] = 1.0
    np.cumprod(sign * w / absw, out=phase[1:])
    phase /= np.abs(phase)
    return phase[:, None] * reps


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """steps[n-1] @ ... @ steps[0] by pairwise tree reduction.

    Each level multiplies all neighbouring pairs of the (n, 3, 3) stack at
    once, as three broadcast multiply-adds over the inner index (3x3
    products in a batched matmul cost more per pair), and carries an odd
    last step up unchanged.  So the roundoff grows with log n rather than n
    (Blelloch, "Prefix sums and their applications").

    Splitting the stack into blocks of 2^j steps keeps every association:
    each of the first j levels pairs steps within a block (a full block
    has an even count at each of them) and carries a partial last block's
    odd step as the whole stack's odd last step, so reducing the blocks'
    products again is this product, bit for bit.
    """
    while len(steps) > 1:
        left, right = steps[1::2], steps[:-1:2]
        paired = left[:, :, :1] * right[:, None, 0]
        paired += left[:, :, 1:2] * right[:, None, 1]
        paired += left[:, :, 2:] * right[:, None, 2]
        steps = np.concatenate([paired, steps[2 * len(paired) :]])
    return steps[0]


#: |lambda| below which _step_exponentials takes its coefficients from the
#: series; their first dropped terms, lambda^4 / 9! and lambda^4 / 10!, are
#: then below 3e-18.
_SERIES_CUTOFF = 1e-3


def _step_exponentials(m: np.ndarray, v: np.ndarray, sign: int) -> np.ndarray:
    """exp(g_k) for the step generators g = sign (v (Jm)^* - m (Jv)^*).

    Here m and v are (n, 3) stacks, each v form-orthogonal to its m, and
    g maps x to sign (<x, m> v - <x, v> m).  Then g^2 = -<v, v> m (Jm)^*
    - <m, m> v (Jv)^* and g^3 = lam g with lam = -<m, m> <v, v>, so
    exp(g) = I + a g + b g^2 (Rodrigues) with a = sinh(x)/x and
    b = (cosh x - 1)/x^2 for x = sqrt(lam); for lam < 0 these read
    sin(y)/y and (1 - cos y)/y^2 with y = sqrt(-lam).  Small |lam| (about
    1e-9 at 1e4 steps) takes a and b from their series, larger |lam| from
    the half-angle form b = 2 (sinh(x/2)/x)^2, which does not cancel.
    """
    mm = form(m, m).real
    vv = form(v, v).real
    lam = -mm * vv
    a = 1.0 + lam * (1.0 / 6.0 + lam * (1.0 / 120.0 + lam / 5040.0))
    b = 0.5 + lam * (1.0 / 24.0 + lam * (1.0 / 720.0 + lam / 40320.0))
    big = np.flatnonzero(np.abs(lam) >= _SERIES_CUTOFF)
    if big.size:
        x = np.sqrt(np.abs(lam[big]))
        hyp = lam[big] > 0.0
        a[big] = np.where(hyp, np.sinh(x), np.sin(x)) / x
        h = np.where(hyp, np.sinh(0.5 * x), np.sin(0.5 * x)) / x
        b[big] = 2.0 * h * h
    jm = (m * SIGNATURE).conj()
    jv = (v * SIGNATURE).conj()
    # I + a g + b g^2
    #   = I + v (a sign Jm - b <m,m> Jv)^* - m (a sign Jv + b <v,v> Jm)^*
    sa = (sign * a)[:, None]
    out = v[:, :, None] * (sa * jm - (b * mm)[:, None] * jv)[:, None, :]
    out -= m[:, :, None] * (sa * jv + (b * vv)[:, None] * jm)[:, None, :]
    out[:, 0, 0] += 1.0
    out[:, 1, 1] += 1.0
    out[:, 2, 2] += 1.0
    return out


#: Steps per block of follow_path's step stage.  It must be a power of two:
#: then the blocks are subtrees of _ordered_product's tree over all the
#: steps, and the blocking changes no bit of F (see _ordered_product).
_BLOCK = 1024


def follow_path(path) -> Isometry:
    """Integrate the tangent flow along a path of points.

    Returns the isometry F with R(c_end) = F R(c_start) F^{-1}.  A midpoint
    rule on the normalized lift gives second-order accuracy in the step
    size: each step is exp(g) for the rank-two generator g built from the
    normalized midpoint m of two consecutive lift vectors and their
    difference v made form-orthogonal to m.  The step exponentials come in
    closed form (_step_exponentials), are multiplied by a pairwise tree
    product (_ordered_product) and projected onto SU(2, 1) once, at the end.

    The steps are taken _BLOCK at a time, from lift rows that overlap by
    one, and each block's product is kept in one (blocks, 3, 3) stack that
    _ordered_product reduces in turn.  So the working memory beyond the
    lift does not grow with the path, and the result is that of one tree
    over all the steps.
    """
    points = path.points if isinstance(path, PathSample) else list(path)
    lift = normalized_lift(points)
    n = len(lift) - 1
    if n < 1:
        return IDENTITY
    sign = points[0].sign
    starts = range(0, n, _BLOCK)
    blocks = np.empty((len(starts), 3, 3), dtype=complex)
    for k, start in enumerate(starts):
        rows = lift[start : start + _BLOCK + 1]
        mids = 0.5 * (rows[:-1] + rows[1:])
        mids = mids / np.sqrt(np.abs(form(mids, mids).real))[:, None]
        vels = rows[1:] - rows[:-1]
        vels = vels - (form(vels, mids) / form(mids, mids))[:, None] * mids
        blocks[k] = _ordered_product(_step_exponentials(mids, vels, sign))
    return project_to_su(_ordered_product(blocks))


#: Relative size of the coordinates off a bending's geodesic (or circle)
#: below which a point counts as on it.
_GEODESIC_TOL = 1e-7

#: Log of the largest float: the most a hyperbolic bending's th_max can be.
_EXP_MAX = math.log(sys.float_info.max)

# Bending.evaluate runs once per orbit sample, and on Python 3.11 reading an
# enum member off its class costs a descriptor call.
_HYPERBOLIC, _SPHERICAL, _EUCLIDEAN = LineType.HYPERBOLIC, LineType.SPHERICAL, LineType.EUCLIDEAN


@dataclass(frozen=True, slots=True)
class Bending:
    """One-parameter group of isometries preserving the line of a pair.

    `cols` holds the adapted basis as columns; `rate` is the speed making
    evaluate(1) carry the first point of the pair onto the second (onto its
    orthogonal partner when the pair mixes signs on a hyperbolic line).

    evaluate(s) is cols N(th) cols_inv with th = rate * s, and `th_max`
    bounds |th| so that no entry overflows; beyond it, or at a NaN,
    evaluate raises BendingOverflow.  With m = max|cols| max|cols_inv|:
    hyperbolic N = diag(e^{-th}, e^{th}, 1) gives entries below 3 m e^{|th|},
    so th_max is log of the largest float less log(3 m); euclidean N holds
    th^2 / 2 (rate 1), so each entry, a sum of 9 products, stays below
    4.5 m th^2, and th_max is the square root of the largest float over
    max(1, 4.5 m); spherical N is a rotation, so th_max is the largest
    float and only an infinite or NaN th fails.
    """

    kind: LineType
    cols: np.ndarray
    cols_inv: np.ndarray
    rate: float
    th_max: float = _EXP_MAX

    def evaluate(self, s: float) -> Isometry:
        # cols @ N(s) @ cols_inv for the normal form N(s), bit for bit:
        # ndarray.dot gives the bits of @ on 3x3 complex matrices at less
        # call cost, and scaling the columns gives those of @ with a
        # diagonal N.  As a Python float, th compares and converts to an
        # array faster than a numpy scalar (np.linspace's samples are);
        # float() changes no bit of the product rate * s.  A flat list
        # converts to N faster than nested ones.
        s = float(s)
        th = self.rate * s
        if not abs(th) <= self.th_max:
            raise BendingOverflow(
                f"bending exponent {abs(th):.3e} exceeds {self.th_max:.3e}",
                value=abs(th),
                bound=self.th_max,
            )
        kind = self.kind
        if kind is _HYPERBOLIC:
            m = (self.cols * np.exp([-th, th, 0.0])).dot(self.cols_inv)
        else:
            if kind is _SPHERICAL:
                c, sn = np.cos(th), np.sin(th)
                n = [c, -sn, 0.0, sn, c, 0.0, 0.0, 0.0, 1.0]
            else:
                n = [1.0, 0.0, 0.0, -s, 1.0, 0.0, -s * s / 2.0, s, 1.0]
            n = np.array(n, dtype=complex).reshape(3, 3)
            m = self.cols.dot(n).dot(self.cols_inv)
        m.setflags(write=False)
        return Isometry(m)

    def point_parameter(self, q: Point) -> tuple[float, int]:
        """Parameter u with evaluate(u) carrying the base fiber onto q's.

        Returns (u, sign of q).  Raises NotOnGeodesic when q is off the real
        geodesic (or circle) swept by the bending, carrying the measured
        value and its bound: in the coordinates c = cols_inv q, a coordinate
        that must vanish is at most _GEODESIC_TOL max|c| and one that must
        not is above it; the imaginary part of a ratio r of two coordinates
        is at most _GEODESIC_TOL max(1, |r|).
        """
        tol, off = _GEODESIC_TOL, NotOnGeodesic
        c = self.cols_inv.dot(q.rep)
        # The moduli a_k are Python's abs of one tolist, which is numpy's
        # scalar abs(c[k]), bit for bit; the bound is numpy's array abs,
        # which on some SIMD dispatches differs from it in the last bit.
        # The parameter comes from numpy scalars of c, as numpy's complex
        # division rounds differently from Python's.
        a0, a1, a2 = map(abs, c.tolist())
        bound = tol * float(np.abs(c).max())
        kind = self.kind
        if kind is not _EUCLIDEAN:
            _require(a2, bound, off, "polar coordinate")
        if kind is _HYPERBOLIC:
            _require_above(min(a0, a1), bound, off, "end coordinate")
            r = c[1] / c[0]
            _require(abs(r.imag), tol * max(1.0, abs(r)), off, "Im of end ratio")
            if (r.real < 0) != (q.sign < 0):
                raise NotOnGeodesic("branch does not match the point sign")
            return 0.5 * np.log(abs(r.real)) / self.rate, q.sign
        if kind is _SPHERICAL:
            _rephase(c)
            _require(np.abs(c[:2].imag).max(), bound, off, "Im of circle coordinates")
            th = float(np.arctan2(c[1].real, c[0].real)) % np.pi
            if th >= np.pi * (1.0 - 1e-12):
                th = 0.0
            return th / self.rate, q.sign
        _require(a0, bound, off, "coordinate off the horocyclic family")
        _require_above(a1, bound, off, "coordinate toward the isotropic end")
        r = c[2] / c[1]
        _require(abs(r.imag), tol * max(1.0, abs(r)), off, "Im of family ratio")
        return float(r.real), q.sign


def _columns(a, b, c) -> np.ndarray:
    """The complex matrix with columns a, b and c, in C order as
    np.column_stack gives it, at less call cost."""
    m = np.empty((3, 3), dtype=complex)
    m[:, 0], m[:, 1], m[:, 2] = a, b, c
    return m


def bending(p1: Point, p2: Point, tol: float = DEFAULT_TOL) -> Bending:
    """The bending group of an ordered pair of distinct non-orthogonal points.

    The frame `cols` is adapted to the line.  Hyperbolic: its isotropic
    ends v1, v2 and the polar point.  Spherical: p1, the unit point of the
    line orthogonal to it, and the polar point.  Euclidean (two positive
    points pairing to modulus 1): a negative unit b, p1 and the isotropic
    u = q2 - p1 orthogonal to p1, with q2 the representative of p2 pairing
    real positive with p1.  There b is a combination of u and r, the part
    of J u orthogonal to p1, which pairs with u to <J u, u> = |u|^2 since
    <p1, u> = 0; b is orthogonal to p1 and pairs with u to 1.

    Raises EqualPoints for equal points, decided from the pair's Gram minor
    by `core.line_type`'s rule: points of opposite sign are never equal,
    two negative points are when tance - 1 is within tol (1 + tance), and
    two positive points are when their minor reads euclidean (within
    tol (1 + tance) as well) and `projectively_equal` says so, and when
    the adapted frame is singular, which means the points coincide
    numerically.  Raises OrthogonalPoints for a pairing at most tol
    relative to the norms.
    """
    s1, s2 = p1.sign, p2.sign
    g12 = form(p1.rep, p2.rep)
    g = abs(g12)
    # whether the points are one is read from their own Gram minor, as
    # line_type reads it; the frame's type from the minor of unit
    # representatives, s1 s2 and g^2, whose margins the formulas below use
    _pair_minor(p1.rep, p2.rep, g * g, tol, EqualPoints)
    kind = _minor_type(s1 * s2, g * g, tol)
    bound = tol * max(1.0, _norm(p1.rep) * _norm(p2.rep))
    _require_above(g, bound, OrthogonalPoints, "pairing of the points")
    # p2's representative rotated so its pairing with p1 is real positive
    q2 = (g12 / g) * p2.rep
    if kind is not _EUCLIDEAN:
        pol = point(np.conj(_cross(J.dot(p1.rep), J.dot(p2.rep))), tol)
    if kind is _HYPERBOLIC:
        sd = np.sqrt(g * g - s1 * s2)
        rp = (-g + sd) / s1
        rm = (-g - sd) / s1
        a = s1 / (2.0 * sd)
        v1 = a * (rp * p1.rep + q2)
        v2 = s1 * (-a) * (rm * p1.rep + q2)
        # p1 = v1 + s1 v2 and <v1, v2> = 1/2 hold exactly; q2 sits at
        # geodesic parameter -log|lam|, which normalizes the speed.
        lam = abs((g + sd) / s1)
        rate = -np.log(lam)
        cols = _columns(v1, v2, pol.rep)
    elif kind is _SPHERICAL:
        # _minor_type calls a pair spherical only at g^2 < (1 - tol)/(1 + tol),
        # so ang = arccos g exceeds tol
        ang = np.arccos(min(1.0, g))
        p1prime = (q2 - g * p1.rep) / np.sin(ang)
        cols = _columns(p1.rep, p1prime, pol.rep)
        rate = float(ang)
    else:
        u = q2 - g * p1.rep
        r = project_orthogonal(p1, J @ u)
        eta = 1.0 / form(r, u)
        gam = -(1.0 + abs(eta) ** 2 * self_product(r)) / 2.0
        b = gam * u + eta * r
        cols = _columns(b, p1.rep, u)
        rate = 1.0
    try:
        cols_inv = np.linalg.inv(cols)
    except np.linalg.LinAlgError as exc:
        raise EqualPoints("the adapted frame of the pair is singular") from exc
    # the bound of the Bending docstring, per kind; the max(1, .) keeps
    # th^2 itself finite
    mc = max(map(abs, cols.ravel().tolist()))
    mci = max(map(abs, cols_inv.ravel().tolist()))
    if kind is _HYPERBOLIC:
        th_max = _EXP_MAX - math.log(3.0 * mc * mci)
    elif kind is _EUCLIDEAN:
        th_max = math.sqrt(sys.float_info.max / max(1.0, 4.5 * mc * mci))
    else:
        th_max = sys.float_info.max
    return Bending(kind, _ro(cols), _ro(cols_inv), float(rate), th_max)


def bend_pair(p1: Point, p2: Point, s: float, tol: float = DEFAULT_TOL):
    """The pair with p2 carried along the bending of (p1, p2) by parameter s."""
    b = bending(p1, p2, tol)
    return p1, b.evaluate(s).apply(p2, tol)


def orthogonal_partner(q: Point, line: Bending) -> Point:
    """The point of the line orthogonal to q, on the other family.

    On a hyperbolic line this flips between the real geodesic and its polar
    family; on a spherical line it advances a quarter turn.  Euclidean lines
    carry no orthogonal partners; q off the complex line (to _GEODESIC_TOL)
    raises NotOnGeodesic.
    """
    if line.kind is LineType.EUCLIDEAN:
        raise EuclideanGeodesic("euclidean lines have no orthogonal partners")
    c = line.cols_inv @ q.rep
    bound = _GEODESIC_TOL * float(np.abs(c).max())
    _require(abs(c[2]), bound, NotOnGeodesic, "polar coordinate")
    if line.kind is LineType.HYPERBOLIC:
        partner = c[0] * line.cols[:, 0] - c[1] * line.cols[:, 1]
    else:
        partner = -c[1] * line.cols[:, 0] + c[0] * line.cols[:, 1]
    return point(partner, DEFAULT_TOL)


def _bend_targets(
    b: Bending, moving: Point, fixed: Point, target: float, tol: float
) -> list[float]:
    """Parameters s of the hyperbolic bending b with ta(B(s) moving, fixed)
    = target, for `moving` on the line of b.

    The tracked pairing sweeps e^{-2th} c1^2 + e^{2th} c2^2 + k, so targets
    below the profile minimum raise Unreachable, the minimum itself has one
    preimage (the ramification), and anything above has two, returned with
    the root at the larger exponent x = e^{2th} first.  Both are the
    quadratic's closed form in x, with no iteration: the larger root by the
    plus branch with the discriminant factored through the distance to the
    minimum, the smaller by Vieta.  The coordinate moves of triples, and
    through them the pentagon's 34 move, read the sheet off that order;
    make_hyperbolic sorts the roots, so it does not depend on it.  A side
    whose pairing with `fixed`, relative to the norms, is at most 1e-8 is
    absent: the profile is then one-sided with a single preimage, and with
    both sides absent (`fixed` the polar point of the line) nothing is
    reachable.
    Below the minimum (the infimum k of a one-sided profile), Unreachable
    carries the target as `value` and, as `bound`, the extreme value of ta
    the bending reaches: that minimum times the sign product of the points.
    """
    sm, sy = moving.sign, fixed.sign
    um = b.point_parameter(moving)[0]
    z1 = form(b.cols[:, 0], fixed.rep)
    z2 = form(b.cols[:, 1], fixed.rep)
    c1, c2 = abs(z1), abs(z2)
    k = 2.0 * sm * (z1 * z2.conjugate()).real
    M = target * sm * sy
    # ta = sm sy M: a bound on M is a floor on ta for equal signs, a ceiling
    # for opposite ones
    side = "below the least" if sm * sy > 0 else "above the greatest"
    mmin = k + 2.0 * c1 * c2
    scale = max(1.0, abs(M), abs(mmin))
    n1, n2, nf = _norm(b.cols[:, 0]), _norm(b.cols[:, 1]), _norm(fixed.rep)
    has1 = c1 > 1e-8 * n1 * nf
    has2 = c2 > 1e-8 * n2 * nf
    rate = b.rate
    if not (has1 and has2):
        # one-sided profile: a single preimage, no sheet structure
        if not (has1 or has2):
            raise Unreachable("the fixed point is the polar point of the line")
        if M <= k + tol * scale:
            raise Unreachable(
                f"target {target:.6g} lies {side} ta of the degenerate profile",
                value=target,
                bound=sm * sy * k,
            )
        if has2:
            th = 0.5 * np.log((M - k) / (c2 * c2))
        else:
            th = -0.5 * np.log((M - k) / (c1 * c1))
        return [th / rate - um]
    if M < mmin - tol * scale:
        raise Unreachable(
            f"target {target:.6g} lies {side} ta the bending reaches",
            value=target,
            bound=sm * sy * mmin,
        )
    if M <= mmin + tol * scale:
        th = 0.5 * np.log(c1 / c2)
        return [th / rate - um]
    # (M - k)^2 - 4 c1^2 c2^2 factored, so that M - mmin, the distance to
    # the minimum, enters as it is rather than as a difference of squares
    disc = np.sqrt(max((M - mmin) * (M - k + 2.0 * c1 * c2), 0.0))
    # larger root by the plus branch, smaller by Vieta: the minus branch
    # cancels catastrophically for targets just above the minimum
    x_hi = ((M - k) + disc) / (2.0 * c2 * c2)
    x_lo = c1 * c1 / (c2 * c2 * x_hi)
    return [0.5 * np.log(x_hi) / rate - um, 0.5 * np.log(x_lo) / rate - um]


#: How far make_hyperbolic carries the pairwise invariant past the
#: hyperbolicity threshold 1.
_MARGIN = 0.5


def _spherical_root(z1: complex, z2: complex) -> float:
    """Smallest theta >= 0 with |cos(theta) z1 + sin(theta) z2|^2 = 1 + _MARGIN,
    the margin capped at half the height of the peak above 1.

    The square is (a + b)/2 + r cos(2 theta - phi), a sinusoid whose first
    crossing of the level lies on its rise to the peak (a + b)/2 + r at
    theta = phi/2.  Raises ExceptionalCase when the peak does not clear 1.
    """
    a, b = abs(z1) ** 2, abs(z2) ** 2
    c = (z1 * z2.conjugate()).real
    r = math.hypot((a - b) / 2.0, c)
    peak = (a + b) / 2.0 + r
    _require_above(peak - 1.0, 1e-10, ExceptionalCase, "orbit peak above the threshold")
    level = 1.0 + min(_MARGIN, 0.5 * (peak - 1.0))
    phi = math.atan2(c, (a - b) / 2.0) % (2.0 * math.pi)
    cos_level = min(1.0, max(-1.0, (level - (a + b) / 2.0) / r))
    return max(0.0, phi - math.acos(cos_level)) / 2.0


def _euclidean_root(h0: complex, h1: complex, level: float) -> float:
    """The positive s with |h0 + s h1|^2 = level > |h0|^2."""
    p = (h0 * h1.conjugate()).real
    q = abs(h1) ** 2
    gap = level - abs(h0) ** 2
    disc = math.sqrt(p * p + q * gap)
    if p >= 0.0:
        return gap / (p + disc)
    return (disc - p) / q


#: Relative error in the level ta(p2(s), p3) = 1 + _MARGIN that a
#: hyperbolic root of make_hyperbolic must meet.
_LEVEL_TOL = 1e-10


def make_hyperbolic(p1: Point, p2: Point, p3: Point, tol: float = DEFAULT_TOL) -> float:
    """Bending parameter s of the pair (p1, p2) making (p2(s), p3) hyperbolic.

    Returns 0.0 when the pair (p2, p3) is already hyperbolic.  Otherwise
    moves p2 until the pairwise invariant clears the hyperbolicity threshold
    1 by _MARGIN (0.5), raising ExceptionalCase for the configurations no
    bending can repair: p3 on the euclidean line of (p1, p2), p3 the polar
    point of a hyperbolic line, or a spherical bending whose orbit never
    clears the threshold.

    p2 lies on its own line, so the pairing h(s) = <E(s) p2, p3> has a
    closed form in the bending's normal form: e^{-theta} a + e^{theta} b
    (hyperbolic), cos(theta) z1 + sin(theta) z2 (spherical), h0 + s h1
    (euclidean).  The invariant is |h(s)|^2 and is solved for directly.
    On a hyperbolic line the root returned is the larger one when the
    invariant there meets the level 1 + _MARGIN to _LEVEL_TOL (1e-10)
    relative to the level, else the other one; ExceptionalCase, carrying
    the smaller error as `value` and the bound, when neither does.  The
    larger root is the positive one when |h|^2 rises toward both ends, and
    the only one when p3 is orthogonal to one isotropic end (to 1e-8) and
    |h|^2 rises toward the other.  When p3 pairs only slightly with that
    end, the larger root lies far out and misses the level, and the nearer
    root is returned.  On a spherical line the root is the smallest
    positive one, the margin capped at half the orbit's peak; on a
    euclidean line the positive root.
    """
    if p2.sign * p3.sign < 0:
        return 0.0
    b = bending(p1, p2, tol)
    if tance(p2, p3) > 1.0:
        return 0.0
    if b.kind is not LineType.HYPERBOLIC:
        # coordinates of p2 in the adapted basis, pairings of the basis with p3
        c = (b.cols_inv @ p2.rep).tolist()
        w = form(b.cols.T, p3.rep).tolist()
        if b.kind is LineType.EUCLIDEAN:
            u, p3norm = b.cols[:, 2], float(np.linalg.norm(p3.rep))
            bound = 1e-8 * float(np.linalg.norm(u)) * p3norm
            _require_above(abs(w[2]), bound, ExceptionalCase, "pairing of p3 with u")
            return _euclidean_root(
                c[1] * w[1] + c[2] * w[2], c[1] * w[2], 1.0 + _MARGIN
            )
        z1 = c[0] * w[0] + c[1] * w[1]
        z2 = c[0] * w[1] - c[1] * w[0]
        return _spherical_root(z1, z2) / b.rate
    level = 1.0 + _MARGIN
    try:
        roots = sorted(_bend_targets(b, p2, p3, level, tol), reverse=True)
    except Unreachable as err:
        raise ExceptionalCase("p3 is the polar point of the line of (p1, p2)") from err
    bound = _LEVEL_TOL * level
    errs = []
    for s in roots:
        err = abs(tance(b.evaluate(s).m @ p2.rep, p3.rep) - level)
        if err <= bound:
            return float(s)
        errs.append(err)
    # every root missed the level, so this raises
    _require(min(errs), bound, ExceptionalCase, "level error of every root")
