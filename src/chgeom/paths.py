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
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    J,
    LineType,
    Point,
    _cross,
    _minor_type,
    form,
    point,
    project_orthogonal,
    projectively_equal,
    self_product,
    tance,
)
from .errors import (
    EqualPoints,
    EuclideanGeodesic,
    ExceptionalCase,
    NotOnGeodesic,
    OrthogonalPoints,
    SignChange,
    StepTooLarge,
    Unreachable,
    _require,
)
from .isometry import (
    IDENTITY,
    Isometry,
    _expm3_batch,
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
    reps = np.array([p.rep for p in points])
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

    Each level multiplies neighbouring pairs in one batched matmul and
    carries an odd last step up unchanged, so the roundoff grows with
    log n rather than n (Blelloch, "Prefix sums and their applications").
    """
    while len(steps) > 1:
        paired = steps[1::2] @ steps[:-1:2]
        steps = np.concatenate([paired, steps[2 * len(paired) :]])
    return steps[0]


def follow_path(path) -> Isometry:
    """Integrate the tangent flow along a path of points.

    Returns the isometry F with R(c_end) = F R(c_start) F^{-1}.  A
    midpoint rule on the normalized lift gives second-order accuracy in the
    step size.  The step exponentials are multiplied by a pairwise tree
    product and projected onto SU(2, 1) once, at the end.
    """
    points = path.points if isinstance(path, PathSample) else list(path)
    lift = normalized_lift(points)
    if len(lift) < 2:
        return IDENTITY
    sign = points[0].sign
    mids = 0.5 * (lift[:-1] + lift[1:])
    mids = mids / np.sqrt(np.abs(form(mids, mids).real))[:, None]
    vels = lift[1:] - lift[:-1]
    vels = vels - (form(vels, mids) / form(mids, mids))[:, None] * mids
    jm = (mids @ J).conj()
    jv = (vels @ J).conj()
    gens = sign * (
        np.einsum("ki,kj->kij", vels, jm) - np.einsum("ki,kj->kij", mids, jv)
    )
    return project_to_su(_ordered_product(_expm3_batch(gens)))


#: Relative size of the coordinates off a bending's geodesic (or circle)
#: below which a point counts as on it.
_GEODESIC_TOL = 1e-7


@dataclass(frozen=True)
class Bending:
    """One-parameter group of isometries preserving the line of a pair.

    `cols` holds the adapted basis as columns; `rate` is the speed making
    evaluate(1) carry the first point of the pair onto the second (onto its
    orthogonal partner when the pair mixes signs on a hyperbolic line).
    """

    kind: LineType
    cols: np.ndarray
    cols_inv: np.ndarray
    rate: float

    def evaluate(self, s: float) -> Isometry:
        # cols @ N(s) @ cols_inv for the normal form N(s); ndarray.dot
        # gives the bits of @ on 3x3 complex matrices at less call cost,
        # and scaling the columns gives those of @ with a diagonal N.
        th = self.rate * s
        if self.kind is LineType.HYPERBOLIC:
            m = (self.cols * np.exp([-th, th, 0.0])).dot(self.cols_inv)
            return Isometry(_ro(m))
        if self.kind is LineType.SPHERICAL:
            c, sn = np.cos(th), np.sin(th)
            n = [[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]]
        else:
            n = [[1.0, 0.0, 0.0], [-s, 1.0, 0.0], [-s * s / 2.0, s, 1.0]]
        m = self.cols.dot(np.array(n, dtype=complex)).dot(self.cols_inv)
        return Isometry(_ro(m))

    def point_parameter(self, q: Point) -> tuple[float, int]:
        """Parameter u with evaluate(u) carrying the base fiber onto q's.

        Returns (u, sign of q).  Raises NotOnGeodesic when q is off the real
        geodesic (or circle) swept by the bending, to _GEODESIC_TOL.
        """
        tol = _GEODESIC_TOL
        c = self.cols_inv @ q.rep
        scale = float(np.abs(c).max())
        if self.kind is LineType.HYPERBOLIC:
            if abs(c[2]) > tol * scale:
                raise NotOnGeodesic("point is off the complex line")
            if min(abs(c[0]), abs(c[1])) <= tol * scale:
                raise NotOnGeodesic("point is at an end of the geodesic")
            r = c[1] / c[0]
            if abs(r.imag) > tol * max(1.0, abs(r)):
                raise NotOnGeodesic("point is off the real geodesic")
            if (r.real < 0) != (q.sign < 0):
                raise NotOnGeodesic("branch does not match the point sign")
            return 0.5 * np.log(abs(r.real)) / self.rate, q.sign
        if self.kind is LineType.SPHERICAL:
            if abs(c[2]) > tol * scale:
                raise NotOnGeodesic("point is off the complex line")
            k = 0 if abs(c[0]) >= abs(c[1]) else 1
            c = c * (abs(c[k]) / c[k])
            if max(abs(c[0].imag), abs(c[1].imag)) > tol * scale:
                raise NotOnGeodesic("point is off the real circle")
            th = float(np.arctan2(c[1].real, c[0].real)) % np.pi
            if th >= np.pi * (1.0 - 1e-12):
                th = 0.0
            return th / self.rate, q.sign
        if abs(c[0]) > tol * scale:
            raise NotOnGeodesic("point is off the horocyclic family")
        if abs(c[1]) <= tol * scale:
            raise NotOnGeodesic("point is at the isotropic end")
        r = c[2] / c[1]
        if abs(r.imag) > tol * max(1.0, abs(r)):
            raise NotOnGeodesic("point is off the real family")
        return float(r.real), q.sign


def bending(p1: Point, p2: Point, tol: float = DEFAULT_TOL) -> Bending:
    """The bending group of an ordered pair of distinct non-orthogonal points."""
    if projectively_equal(p1, p2, tol):
        raise EqualPoints("equal points admit no bending")
    s1, s2 = p1.sign, p2.sign
    g12 = form(p1.rep, p2.rep)
    g = abs(g12)
    kind = _minor_type(s1 * s2, g * g, tol)
    if g <= tol * max(1.0, float(np.linalg.norm(p1.rep) * np.linalg.norm(p2.rep))):
        raise OrthogonalPoints("orthogonal points admit no bending")
    # p2's representative rotated so its pairing with p1 is real positive
    q2 = (g12 / g) * p2.rep
    if kind is not LineType.EUCLIDEAN:
        pol = point(np.conj(_cross(J @ p1.rep, J @ p2.rep)), tol)
    if kind is LineType.HYPERBOLIC:
        d = g * g - s1 * s2
        rp = (-g + np.sqrt(d)) / s1
        rm = (-g - np.sqrt(d)) / s1
        a = s1 / (2.0 * np.sqrt(d))
        v1 = a * (rp * p1.rep + q2)
        v2 = s1 * (-a) * (rm * p1.rep + q2)
        # p1 = v1 + s1 v2 and <v1, v2> = 1/2 hold exactly; q2 sits at
        # geodesic parameter -log|lam|, which normalizes the speed.
        lam = abs((g + np.sqrt(d)) / s1)
        rate = -np.log(lam)
        cols = np.column_stack([v1, v2, pol.rep])
    elif kind is LineType.SPHERICAL:
        ang = np.arccos(min(1.0, g))
        if ang <= tol:
            raise EqualPoints("spherical pair at angle zero")
        p1prime = (q2 - g * p1.rep) / np.sin(ang)
        cols = np.column_stack([p1.rep, p1prime, pol.rep])
        rate = float(ang)
    else:
        u = q2 - g * p1.rep
        best, r = None, None
        for k in range(3):
            cand = project_orthogonal(p1, np.eye(3)[k])
            w = abs(form(cand, u))
            if best is None or w > best:
                best, r = w, cand
        eta = 1.0 / form(r, u)
        gam = -(1.0 + abs(eta) ** 2 * self_product(r)) / 2.0
        b = gam * u + eta * r
        cols = np.column_stack([b, p1.rep, u])
        rate = 1.0
    return Bending(
        kind=kind,
        cols=_ro(cols),
        cols_inv=_ro(np.linalg.inv(cols)),
        rate=float(rate),
    )


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
    scale = float(np.abs(c).max())
    if abs(c[2]) > _GEODESIC_TOL * scale:
        raise NotOnGeodesic("point is off the complex line")
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
    preimage (the ramification), and anything above has two.  A side whose
    pairing with `fixed`, relative to the norms, is at most 1e-8 is absent:
    the profile is then one-sided with a single preimage, and with both
    sides absent (`fixed` the polar point of the line) nothing is reachable.
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
    mmin = k + 2.0 * c1 * c2
    scale = max(1.0, abs(M), abs(mmin))
    # euclidean norms in plain floats: np.linalg.norm on a 3-vector is
    # several times slower, and this runs on every surface move
    n1, n2, nf = (
        math.hypot(*map(abs, v)) for v in (*b.cols.T[:2].tolist(), fixed.rep.tolist())
    )
    has1 = c1 > 1e-8 * n1 * nf
    has2 = c2 > 1e-8 * n2 * nf
    rate = b.rate
    if not (has1 and has2):
        # one-sided profile: a single preimage, no sheet structure
        if not (has1 or has2):
            raise Unreachable("the fixed point is the polar point of the line")
        if M <= k + tol * scale:
            raise Unreachable(
                "target is below the degenerate profile",
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
            f"target {target:.6g} lies below the profile minimum",
            value=target,
            bound=sm * sy * mmin,
        )
    if M <= mmin + tol * scale:
        th = 0.5 * np.log(c1 / c2)
        return [th / rate - um]
    disc = np.sqrt(max((M - k) ** 2 - 4.0 * c1 * c1 * c2 * c2, 0.0))
    # larger root by the plus branch, smaller by Vieta: the minus branch
    # cancels catastrophically for targets just above the minimum
    x_hi = ((M - k) + disc) / (2.0 * c2 * c2)
    out = []
    for x in (x_hi, c1 * c1 / (c2 * c2 * x_hi)):
        for _ in range(2):
            fp = c2 * c2 - c1 * c1 / (x * x)
            if abs(fp) < 1e-30:
                break
            step = (c2 * c2 * x + c1 * c1 / x + k - M) / fp
            if abs(step) > 0.5 * x:
                break
            x -= step
        out.append(0.5 * np.log(x) / rate - um)
    return out


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
    if peak - 1.0 <= 1e-10:
        raise ExceptionalCase("the spherical orbit never becomes hyperbolic")
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
            u = b.cols[:, 2]
            p3norm = float(np.linalg.norm(p3.rep))
            if abs(w[2]) <= 1e-8 * float(np.linalg.norm(u)) * p3norm:
                raise ExceptionalCase("p3 lies on the euclidean line of (p1, p2)")
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
