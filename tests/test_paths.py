"""Lifts, tangent flows, bendings.

Anchors: the hat operator is pinned by a central finite difference of the
reflection map (the analytic statement dR = 2 hat R), follow_path by the
closed-form one-parameter orbits it must reproduce, and each bending kind by
its defining geometric action.
"""

import numpy as np
import pytest
import scipy.optimize

import chgeom as chg
from chgeom import errors
from chgeom.core import form, point, project_orthogonal, self_product
from chgeom.isometry import IDENTITY, _expm3, reflection, star
from chgeom.paths import (
    _MAX_STEP_ANGLE,
    Bending,
    _ordered_product,
    bend_pair,
    bending,
    follow_path,
    hat,
    make_hyperbolic,
    normalized_lift,
    orthogonal_partner,
    path_sample,
    tangent,
)
from chgeom.sampling import (
    default_rng,
    random_isometry,
    random_negative_point,
    random_point,
    random_vector,
)


def random_tangent(rng, p=None):
    if p is None:
        p = random_point(rng)
    v = project_orthogonal(p, random_vector(rng))
    return tangent(p, v)


def random_hyperbolic_pair(rng):
    return random_negative_point(rng), random_negative_point(rng)


def random_spherical_pair(rng):
    p1 = random_point(rng, sign=1)
    while True:
        w = project_orthogonal(p1, random_vector(rng))
        if self_product(w) > 0.05:
            break
    w = w / np.sqrt(self_product(w))
    ang = rng.uniform(0.2, 1.3)
    return p1, point(np.cos(ang) * p1.rep + np.sin(ang) * w)


def random_mixed_pair(rng):
    """Negative p1 and a positive point on the same hyperbolic line."""
    p1 = random_negative_point(rng)
    q = random_negative_point(rng)
    w = project_orthogonal(p1, q.rep)
    t = rng.uniform(0.2, 0.8)
    v = w / np.sqrt(self_product(w)) + t * p1.rep
    if self_product(v) < 0.05:
        return random_mixed_pair(rng)
    return p1, point(v)


EUCLIDEAN_PAIR = (point([0.0, 1.0, 0.0]), point([1.0, 1.0, 1.0]))


def serial_lift(points):
    """Reference lift: each phase taken from the pairing with the previous
    lifted vector, one sample at a time."""
    sign = points[0].sign
    out = np.empty((len(points), 3), dtype=complex)
    out[0] = points[0].rep
    for k in range(1, len(points)):
        r = points[k].rep
        w = form(out[k - 1], r)
        out[k] = (sign * w / abs(w)) * r
    return out


class TestTangentAndHat:
    def test_frozen_axis_example(self):
        t = tangent(point([0.0, 0.0, 1.0]), [1.0, 0.0, 0.0])
        expected = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
        assert np.array_equal(hat(t), expected)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            tangent(point([0.0, 0.0, 1.0]), [0.0, 0.0, 1.0])

    def test_finite_difference_of_reflection(self):
        rng = default_rng(31)
        eps = 1e-6
        for _ in range(25):
            t = random_tangent(rng)
            p, v = t.base.rep, t.v
            fd = (reflection(p + eps * v).m - reflection(p - eps * v).m) / (2 * eps)
            analytic = 2.0 * (t.matrix() + star(t.matrix()))
            assert np.allclose(fd, analytic, atol=1e-7 * max(1, np.abs(fd).max()))
            assert np.allclose(analytic, 2.0 * hat(t) @ reflection(p).m, atol=1e-11)

    def test_hat_is_in_algebra_and_anticommutes(self):
        rng = default_rng(32)
        for _ in range(25):
            t = random_tangent(rng)
            h = hat(t)
            assert abs(np.trace(h)) < 1e-12
            assert np.allclose(h + star(h), 0.0, atol=1e-12)
            r = reflection(t.base).m
            assert np.allclose(h @ r + r @ h, 0.0, atol=1e-11)


class TestNormalizedLift:
    def test_reproduces_circle_family(self):
        p1, p2 = random_spherical_pair(default_rng(33))
        b = bending(p1, p2)
        thetas = np.linspace(0.0, 1.1, 40)
        raw = np.array(
            [np.cos(th) * b.cols[:, 0] + np.sin(th) * b.cols[:, 1] for th in thetas]
        )
        pts = [point(v) for v in raw]
        lift = normalized_lift(pts)
        phase = lift[0] / raw[0]
        # a single global phase: the lift is the smooth family itself
        assert np.allclose(lift, phase[np.argmax(np.abs(raw[0]))] * raw, atol=1e-12)

    def test_pairings_are_real_positive(self):
        rng = default_rng(34)
        p1, p2 = random_hyperbolic_pair(rng)
        b = bending(p1, p2)
        pts = [b.evaluate(s).apply(p1) for s in np.linspace(0, 0.6, 30)]
        lift = normalized_lift(pts)
        pair = form(lift[:-1], lift[1:])
        sign = pts[0].sign
        assert np.all(sign * pair.real > 0)
        assert np.abs(pair.imag).max() < 1e-13
        for k in range(len(pts)):
            assert chg.projectively_equal(lift[k], pts[k].rep)

    def test_sign_change_rejected(self):
        with pytest.raises(errors.SignChange):
            normalized_lift([point([0, 0, 1.0]), point([1.0, 0, 0])])

    def test_step_too_large(self):
        rng = default_rng(35)
        p = random_negative_point(rng)
        far = point([0.9, 0.0, 1.0])
        with pytest.raises(errors.StepTooLarge):
            normalized_lift([p, far])

    def test_step_too_large_names_first_pair(self):
        a, b = point([0.0, 0.0, 1.0]), point([0.01, 0.0, 1.0])
        c, d = point([0.5, 0.0, 1.0]), point([0.5, 0.01, 1.0])
        e = point([0.0, 0.5, 1.0])
        with pytest.raises(errors.StepTooLarge, match="samples 1 and 2 "):
            normalized_lift([a, b, c, d, e])

    def test_nearly_orthogonal_pair(self):
        # two positive points near the isotropic vector (1, 0, 1): 0.14 rad
        # apart in euclidean angle, yet form-orthogonal
        p, q = point([1.01, 0.0, 1.0]), point([1.0, 0.2, 1.01])
        assert p.sign == q.sign == 1
        with pytest.raises(errors.StepTooLarge, match="nearly orthogonal"):
            normalized_lift([p, q])

    @pytest.mark.parametrize("kind", ["hyperbolic", "spherical", "euclidean"])
    def test_matches_serial_lift(self, kind):
        rng = default_rng(70)
        if kind == "hyperbolic":
            p1, p2 = random_hyperbolic_pair(rng)
        elif kind == "spherical":
            p1, p2 = random_spherical_pair(rng)
        else:
            g = chg.sampling.random_isometry(rng, 0.5)
            p1, p2 = (g.apply(p) for p in EUCLIDEAN_PAIR)
        b = bending(p1, p2)
        assert b.kind.value == kind
        pts = [b.evaluate(s).apply(p1) for s in np.linspace(0.0, 1.5, 10_001)]
        want = serial_lift(pts)
        # both are running products of n unit phases, each step rounding
        # by ~eps, so they may drift apart by up to n * eps (measured here:
        # at most 7e-14 relative, the serial loop being the one further
        # from an extended-precision lift)
        bound = len(pts) * np.finfo(float).eps * np.abs(want).max()
        assert np.abs(normalized_lift(pts) - want).max() <= bound


class TestFollowPath:
    def test_reproduces_spherical_orbit(self):
        p1, p2 = random_spherical_pair(default_rng(36))
        b = bending(p1, p2)
        ts = np.linspace(0.0, 1.0, 2001)
        pts = [b.evaluate(t).apply(p1) for t in ts]
        f = follow_path(path_sample(pts, ts))
        assert np.allclose(f.m, b.evaluate(1.0).m, atol=2e-6)

    def test_reproduces_hyperbolic_orbit(self):
        p1, p2 = random_hyperbolic_pair(default_rng(37))
        b = bending(p1, p2)
        ts = np.linspace(0.0, 1.0, 2001)
        pts = [b.evaluate(t).apply(p1) for t in ts]
        f = follow_path(path_sample(pts, ts))
        assert np.allclose(f.m, b.evaluate(1.0).m, atol=2e-6)

    def test_transports_reflection_along_generic_path(self):
        # a wiggly curve inside the ball, not an orbit of anything
        ts = np.linspace(0.0, 1.0, 4001)
        pts = [
            point([0.3 * np.sin(2 * t) + 0.05j * t, 0.2 * t + 0.1j * np.sin(3 * t), 1.0])
            for t in ts
        ]
        f = follow_path(path_sample(pts, ts))
        lhs = reflection(pts[-1]).m
        rhs = (f @ reflection(pts[0]) @ f.inv()).m
        assert np.allclose(lhs, rhs, atol=5e-7)
        assert np.abs(f.m.conj().T @ chg.J @ f.m - chg.J).max() < 1e-12

    def test_trivial_path(self):
        p = point([0.1, 0.0, 1.0])
        assert np.allclose(follow_path([p]).m, np.eye(3))

    def test_accepts_an_iterator(self):
        pts = [point([0.01 * k, 0.0, 1.0]) for k in range(5)]
        assert np.array_equal(follow_path(iter(pts)).m, follow_path(pts).m)

    @pytest.mark.parametrize("n", [2, 3, 4, 257, 10_001])
    def test_tree_product_lengths(self, n):
        # odd and even counts of steps at each level of the pairwise product
        p1, p2 = random_hyperbolic_pair(default_rng(37))
        b = bending(p1, p2)
        ts = np.linspace(0.0, (n - 1) * 1e-4, n)
        pts = [b.evaluate(t).apply(p1) for t in ts]
        f = follow_path(path_sample(pts, ts))
        assert np.abs(f.m - b.evaluate(ts[-1]).m).max() <= 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 257])
    def test_tree_product_order(self, n):
        # non-commuting factors pin the order: steps[n-1] @ ... @ steps[0]
        rng = default_rng(71)
        steps = np.array([chg.sampling.random_isometry(rng, 0.3).m for _ in range(n)])
        want = np.eye(3, dtype=complex)
        for m in steps:
            want = m @ want
        got = _ordered_product(steps)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestHyperbolicBending:
    def test_carries_first_point_to_second(self):
        rng = default_rng(39)
        for _ in range(20):
            p1, p2 = random_hyperbolic_pair(rng)
            if chg.projectively_equal(p1, p2, 1e-6):
                continue
            b = bending(p1, p2)
            assert b.kind is chg.LineType.HYPERBOLIC
            q = b.evaluate(1.0).apply(p1)
            assert chg.projectively_equal(q, p2, 1e-9)
            _, moved = bend_pair(p1, p2, 1.0)
            assert chg.projectively_equal(moved, b.evaluate(1.0).apply(p2), 1e-9)

    def test_positive_pair_on_hyperbolic_line(self):
        rng = default_rng(40)
        for _ in range(10):
            p1 = random_negative_point(rng)
            q = random_negative_point(rng)
            w = project_orthogonal(p1, q.rep)
            w = w / np.sqrt(self_product(w))
            a1 = point(w + 0.3 * p1.rep)
            a2 = point(w - 0.5 * p1.rep)
            b = bending(a1, a2)
            assert b.kind is chg.LineType.HYPERBOLIC
            assert chg.projectively_equal(b.evaluate(1.0).apply(a1), a2, 1e-8)

    def test_group_law_and_polar_fixed(self):
        rng = default_rng(41)
        p1, p2 = random_hyperbolic_pair(rng)
        b = bending(p1, p2)
        s, t = 0.37, -0.91
        assert np.allclose(
            (b.evaluate(s) @ b.evaluate(t)).m, b.evaluate(s + t).m, atol=1e-12
        )
        pol = chg.polar_point(p1, p2)
        assert chg.projectively_equal(b.evaluate(s).apply(pol), pol, 1e-12)
        assert np.abs(b.evaluate(s).m.conj().T @ chg.J @ b.evaluate(s).m - chg.J).max() < 1e-12

    def test_point_parameter_roundtrip(self):
        rng = default_rng(42)
        p1, p2 = random_hyperbolic_pair(rng)
        b = bending(p1, p2)
        assert b.point_parameter(p1)[0] == pytest.approx(0.0, abs=1e-9)
        u2, s2 = b.point_parameter(p2)
        assert u2 == pytest.approx(1.0, abs=1e-9)
        assert s2 == -1
        for s in (-1.3, 0.4, 2.2):
            q = b.evaluate(s).apply(p1)
            assert b.point_parameter(q)[0] == pytest.approx(s, abs=1e-9)

    def test_mixed_pair_aligns_fibers(self):
        rng = default_rng(43)
        for _ in range(10):
            p1, p2 = random_mixed_pair(rng)
            b = bending(p1, p2)
            assert b.kind is chg.LineType.HYPERBOLIC
            u2, sgn = b.point_parameter(p2)
            assert sgn == 1
            assert u2 == pytest.approx(1.0, abs=1e-8)
            partner = orthogonal_partner(b.evaluate(1.0).apply(p1), b)
            assert chg.projectively_equal(partner, p2, 1e-8)

    def test_off_geodesic_rejected(self):
        rng = default_rng(44)
        p1, p2 = random_hyperbolic_pair(rng)
        b = bending(p1, p2)
        with pytest.raises(errors.NotOnGeodesic):
            b.point_parameter(random_negative_point(rng))
        # a point on the complex line but off the real geodesic
        q = point(b.cols[:, 0] - (0.5 + 0.5j) * b.cols[:, 1])
        with pytest.raises(errors.NotOnGeodesic):
            b.point_parameter(q)


def reference_evaluate(b: Bending, s: float) -> np.ndarray:
    """cols @ N(s) @ cols_inv with the normal form N(s) written out; the
    library's evaluate must reproduce it bit for bit."""
    th = b.rate * s
    if b.kind is chg.LineType.HYPERBOLIC:
        n = np.diag([np.exp(-th), np.exp(th), 1.0])
    elif b.kind is chg.LineType.SPHERICAL:
        c, sn = np.cos(th), np.sin(th)
        n = np.array([[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]])
    else:
        n = np.array([[1.0, 0.0, 0.0], [-s, 1.0, 0.0], [-s * s / 2.0, s, 1.0]])
    return b.cols @ n @ b.cols_inv


@pytest.mark.parametrize("kind", ["hyperbolic", "spherical", "euclidean"])
def test_evaluate_is_bitwise_reference(kind):
    rng = default_rng(44)
    for _ in range(100):
        if kind == "hyperbolic":
            p1, p2 = random_hyperbolic_pair(rng)
        elif kind == "spherical":
            p1, p2 = random_spherical_pair(rng)
        else:
            g = random_isometry(rng, 0.6)
            p1, p2 = (g.apply(p) for p in EUCLIDEAN_PAIR)
        b = bending(p1, p2)
        assert b.kind.value == kind
        for s in [*np.linspace(-5.0, 5.0, 9), *rng.uniform(-5.0, 5.0, 20)]:
            got, want = b.evaluate(float(s)).m, reference_evaluate(b, float(s))
            assert got.tobytes() == want.tobytes()


def test_step_angle_error_carries_value_and_bound():
    p, far = point([0.0, 0.0, 1.0]), point([0.5, 0.0, 1.0])
    with pytest.raises(errors.StepTooLarge) as info:
        normalized_lift([p, far])
    # the euclidean angle between (0, 0, 1) and (0.5, 0, 1)
    assert info.value.value == pytest.approx(np.arctan(0.5), rel=1e-12)
    assert info.value.bound == _MAX_STEP_ANGLE


@pytest.mark.parametrize("pair", [random_hyperbolic_pair, random_spherical_pair])
def test_bending_pairs_the_points_once(pair, count_calls):
    p1, p2 = pair(default_rng(43))
    counts = count_calls(chg.core.form, chg.core.line_type, chg.core.polar_point)
    bending(p1, p2)
    assert counts["form"] <= 1
    assert counts["line_type"] == 0 and counts["polar_point"] == 0


class TestSphericalBending:
    def test_carries_first_point_to_second(self):
        rng = default_rng(45)
        for _ in range(20):
            p1, p2 = random_spherical_pair(rng)
            b = bending(p1, p2)
            assert b.kind is chg.LineType.SPHERICAL
            assert chg.projectively_equal(b.evaluate(1.0).apply(p1), p2, 1e-9)

    def test_periodicity(self):
        p1, p2 = random_spherical_pair(default_rng(46))
        b = bending(p1, p2)
        assert np.allclose(b.evaluate(2 * np.pi / b.rate).m, np.eye(3), atol=1e-12)

    def test_point_parameter(self):
        p1, p2 = random_spherical_pair(default_rng(47))
        b = bending(p1, p2)
        assert b.point_parameter(p1)[0] == pytest.approx(0.0, abs=1e-9)
        assert b.point_parameter(p2)[0] == pytest.approx(1.0, abs=1e-9)
        period = np.pi / b.rate
        for s in (0.7, 1.9):
            q = b.evaluate(s).apply(p1)
            assert b.point_parameter(q)[0] == pytest.approx(s % period, abs=1e-9)

    def test_partner_quarter_turn(self):
        p1, p2 = random_spherical_pair(default_rng(48))
        b = bending(p1, p2)
        q = b.evaluate(0.6).apply(p1)
        partner = orthogonal_partner(q, b)
        assert abs(form(partner.rep, q.rep)) < 1e-9
        assert partner.sign == 1
        assert b.point_parameter(partner)[0] == pytest.approx(
            (0.6 + (np.pi / 2) / b.rate) % (np.pi / b.rate), abs=1e-8
        )


class TestEuclideanBending:
    def test_carries_first_point_to_second(self):
        p1, p2 = EUCLIDEAN_PAIR
        b = bending(p1, p2)
        assert b.kind is chg.LineType.EUCLIDEAN
        assert chg.projectively_equal(b.evaluate(1.0).apply(p1), p2, 1e-9)

    def test_unipotent(self):
        p1, p2 = EUCLIDEAN_PAIR
        b = bending(p1, p2)
        m = b.evaluate(0.83).m - np.eye(3)
        assert np.abs(m @ m @ m).max() < 1e-12
        u = b.cols[:, 2]
        assert np.allclose(b.evaluate(2.5).m @ u, u, atol=1e-12)

    def test_conjugated_pair(self):
        rng = default_rng(49)
        g = chg.sampling.random_isometry(rng, 0.5)
        p1, p2 = (g.apply(p) for p in EUCLIDEAN_PAIR)
        b = bending(p1, p2)
        assert b.kind is chg.LineType.EUCLIDEAN
        assert chg.projectively_equal(b.evaluate(1.0).apply(p1), p2, 1e-7)

    def test_point_parameter_and_partner(self):
        p1, p2 = EUCLIDEAN_PAIR
        b = bending(p1, p2)
        for s in (-0.7, 0.0, 1.4):
            q = b.evaluate(s).apply(p1)
            assert b.point_parameter(q)[0] == pytest.approx(s, abs=1e-9)
        with pytest.raises(errors.EuclideanGeodesic):
            orthogonal_partner(p1, b)


class TestBendingErrors:
    def test_equal_points(self):
        p = point([0.1, 0.2, 1.0])
        with pytest.raises(errors.EqualPoints):
            bending(p, point(-2.0 * p.rep))

    def test_orthogonal_points(self):
        with pytest.raises(errors.OrthogonalPoints):
            bending(point([0, 0, 1.0]), point([1.0, 0, 0]))


class TestMakeHyperbolic:
    def test_already_hyperbolic(self):
        rng = default_rng(50)
        p1, p2 = random_hyperbolic_pair(rng)
        p3 = random_point(rng, sign=1)
        assert make_hyperbolic(p1, p2, p3) == 0.0

    def test_spherical_flip(self):
        # bend a positive p2 on a hyperbolic line until its spherical
        # pair with p3 flips to hyperbolic, landing on the margin exactly
        rng = default_rng(51)
        done = 0
        while done < 10:
            p1, p2 = random_mixed_pair(rng)
            w = project_orthogonal(p2, random_vector(rng))
            if self_product(w) < 0.05:
                continue
            w = w / np.sqrt(self_product(w))
            a = rng.uniform(0.3, 1.2)
            p3 = point(np.cos(a) * p2.rep + np.sin(a) * w)
            assert chg.line_type(p2, p3) is chg.LineType.SPHERICAL
            s = make_hyperbolic(p1, p2, p3)
            _, q2 = bend_pair(p1, p2, s)
            assert chg.line_type(q2, p3) is chg.LineType.HYPERBOLIC
            assert chg.tance(q2, p3) == pytest.approx(1.5, abs=1e-7)
            done += 1

    def test_polar_point_is_exceptional(self):
        p1 = point([0.0, 0.0, 1.0])
        p2 = point([1.0, 0.0, 0.5])
        p3 = chg.polar_point(p1, p2)
        assert p2.sign == 1 and p3.sign == 1
        with pytest.raises(errors.ExceptionalCase):
            make_hyperbolic(p1, p2, p3)

    def test_euclidean_in_line_is_exceptional(self):
        p1, p2 = EUCLIDEAN_PAIR
        p3 = point(p1.rep + 2.0 * (p2.rep - form(p2.rep, p1.rep) * p1.rep))
        assert chg.line_type(p1, p3) is chg.LineType.EUCLIDEAN
        with pytest.raises(errors.ExceptionalCase):
            make_hyperbolic(p1, p2, p3)

    def test_euclidean_off_line_solvable(self):
        p1, p2 = EUCLIDEAN_PAIR
        p3 = point([2.0, 0.3, 1.0])
        assert p3.sign == 1
        s = make_hyperbolic(p1, p2, p3)
        _, q2 = bend_pair(p1, p2, s)
        assert chg.line_type(q2, p3) is chg.LineType.HYPERBOLIC

    def test_spherical_orbit_unreachable(self):
        p1 = point([1.0, 0.0, 0.0])
        p2 = point([np.cos(0.7), np.sin(0.7), 0.0])
        p3 = point([1 / np.sqrt(2), 1j / np.sqrt(2), 0.0])
        with pytest.raises(errors.ExceptionalCase):
            make_hyperbolic(p1, p2, p3)

    def test_spherical_orbit_reachable(self):
        p1 = point([1.0, 0.0, 0.0])
        p2 = point([np.cos(0.7), np.sin(0.7), 0.0])
        p3 = point([np.sqrt(2.0), 0.0, 1.0])
        s = make_hyperbolic(p1, p2, p3)
        _, q2 = bend_pair(p1, p2, s)
        assert chg.line_type(q2, p3) is chg.LineType.HYPERBOLIC


def spherical_partner(rng, p):
    """A positive point spanning a spherical line with the positive p."""
    while True:
        w = project_orthogonal(p, random_vector(rng))
        if self_product(w) > 0.05:
            break
    w = w / np.sqrt(self_product(w))
    a = rng.uniform(0.05, 1.5)
    return point(np.cos(a) * p.rep + np.sin(a) * w)


def random_euclidean_pair(rng):
    """EUCLIDEAN_PAIR's line, p2 slid along it, moved by an isometry."""
    g = random_isometry(rng, 0.3)
    p1 = point([0.0, 1.0, 0.0])
    p2 = point([0.0, 1.0, 0.0] + rng.uniform(-2.0, 2.0) * np.array([1.0, 0.0, 1.0]))
    return g.apply(p1), g.apply(p2)


PAIRS = {
    "hyperbolic": random_mixed_pair,
    "spherical": random_spherical_pair,
    "euclidean": random_euclidean_pair,
}


def bending_gap(b, p2, p3):
    """The invariant make_hyperbolic drives: ta(p2(s), p3) - 1."""

    def gap(s):
        q = b.evaluate(s).m @ p2.rep
        return abs(form(q, p3.rep)) ** 2 / (self_product(q) * p3.sign) - 1.0

    return gap


def spherical_target(b, gap, margin=0.5):
    """min(margin, half the orbit's peak gap), the peak found numerically."""
    grid = np.linspace(0.0, np.pi / b.rate, 257)
    k = int(np.argmax([gap(s) for s in grid]))
    res = scipy.optimize.minimize_scalar(
        lambda s: -gap(s),
        bounds=(grid[max(k - 1, 0)], grid[min(k + 1, 256)]),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return min(margin, 0.5 * (-res.fun))


def root_finder_bracket(b, gap, target):
    """The interval a bracketing root finder searched for make_hyperbolic:
    the argmax of a 129-point grid over one period on spherical lines, else
    [0, s] with s doubled from 0.5 until the gap clears the target, the
    positive side first.  None when that search finds no bracket."""
    if b.kind is chg.LineType.SPHERICAL:
        grid = np.linspace(0.0, np.pi / b.rate, 129)
        vals = [gap(s) for s in grid]
        k = int(np.argmax(vals))
        return grid[k] if vals[k] >= target else None
    max_s = 700.0 / abs(b.rate) if b.kind is chg.LineType.HYPERBOLIC else 1e12
    for direction in (1.0, -1.0):
        s = 0.5 * direction
        while abs(s) <= max_s:
            if gap(s) >= target:
                return s
            s *= 2.0
    return None


class TestMakeHyperbolicClosedForm:
    @pytest.mark.parametrize("kind", sorted(PAIRS))
    def test_gap_hits_target_and_matches_brentq(self, kind):
        rng = default_rng({"euclidean": 54, "hyperbolic": 52, "spherical": 53}[kind])
        compared = 0
        for _ in range(40):
            p1, p2 = PAIRS[kind](rng)
            p3 = spherical_partner(rng, p2)
            b = bending(p1, p2)
            assert b.kind is chg.LineType(kind)
            try:
                s = make_hyperbolic(p1, p2, p3)
            except errors.ExceptionalCase:
                assert kind == "spherical"
                continue
            gap = bending_gap(b, p2, p3)
            target = spherical_target(b, gap) if kind == "spherical" else 0.5
            assert abs(gap(s) - target) <= 1e-10
            end = root_finder_bracket(b, gap, target)
            if end is None:
                continue
            root = scipy.optimize.brentq(lambda t: gap(t) - target, 0.0, end, xtol=1e-14)
            assert abs(s - root) <= 1e-10 * max(1.0, abs(root))
            compared += 1
        assert compared >= 30

    @pytest.mark.parametrize("off", [0.0, 1e-11, 1e-10])
    def test_one_sided_hyperbolic_profile(self, off):
        # p3 in the span of the polar point and one isotropic end: the
        # pairing grows toward one end only, so the root has one sign.  A
        # coefficient `off` along the other end, below the solver's 1e-8
        # relative cut, leaves the profile one-sided.
        rng = default_rng(55)
        signs = set()
        for _ in range(10):
            p1, p2 = random_mixed_pair(rng)
            b = bending(p1, p2)
            j = int(rng.integers(2))
            end, other = b.cols[:, j], b.cols[:, 1 - j]
            p3 = point(
                b.cols[:, 2]
                + rng.uniform(0.1, 0.5) * end / np.linalg.norm(end)
                + off * other / np.linalg.norm(other)
            )
            gap = bending_gap(b, p2, p3)
            assert gap(0.0) < 0.0
            s = make_hyperbolic(p1, p2, p3)
            assert abs(gap(s) - 0.5) <= 1e-10
            # toward the other end the pairing decays (a bracket search
            # there runs into overflow, where the gap reads garbage)
            side = np.sign(s)
            assert all(gap(-side * th / abs(b.rate)) < 0.5 for th in (0.5, 1.0, 2.0, 4.0, 8.0))
            end_s = 0.5 * side
            while gap(end_s) < 0.5:
                end_s *= 2.0
            root = scipy.optimize.brentq(lambda t: gap(t) - 0.5, 0.0, end_s, xtol=1e-14)
            assert abs(s - root) <= 1e-10 * max(1.0, abs(root))
            signs.add(side)
        assert signs == {-1.0, 1.0}

    @pytest.mark.parametrize("off", [1e-7, 1e-6, 1e-5, 1e-4])
    def test_slightly_two_sided_profile_meets_the_level(self, off):
        # The construction above with the other end's coefficient above the
        # 1e-8 cut: both sides are present, the larger root can lie far out
        # where roundoff swamps the level, and the nearer root meets it.
        rng = default_rng(55)
        for _ in range(10):
            p1, p2 = random_mixed_pair(rng)
            b = bending(p1, p2)
            j = int(rng.integers(2))
            end, other = b.cols[:, j], b.cols[:, 1 - j]
            p3 = point(
                b.cols[:, 2]
                + rng.uniform(0.1, 0.5) * end / np.linalg.norm(end)
                + off * other / np.linalg.norm(other)
            )
            s = make_hyperbolic(p1, p2, p3)
            assert abs(bending_gap(b, p2, p3)(s) - 0.5) <= 1e-10
