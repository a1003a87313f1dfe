"""Core form, points, invariants.

The main oracle is a configuration built over a pair of isotropic vectors
v1, v2 with <v1, v2> = 1/2 and a unit positive vector v3 pairing as
<v1, v3> = 1, <v2, v3> = 1/8.  Every invariant below was computed by hand in
exact rational arithmetic from that Gram and is frozen here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chgeom as chg
from chgeom import errors
from chgeom.sampling import default_rng, random_point, random_vector

V_GRAM = np.array(
    [
        [0.0, 0.5, 1.0],
        [0.5, 0.0, 0.125],
        [1.0, 0.125, 1.0],
    ]
)


@pytest.fixture(scope="module")
def vbasis():
    return chg.realize_gram(V_GRAM)


def combo(vbasis, a, b):
    return a * vbasis[0] + b * vbasis[1]


def test_realize_gram_roundtrip_fixture(vbasis):
    got = chg.gram(vbasis).m
    assert np.allclose(got, V_GRAM, atol=1e-12)


class TestFixtureInvariants:
    """Frozen rational values for the two-geodesic flip configuration."""

    def test_tance_hyperbolic_pair(self, vbasis):
        p1 = chg.point(combo(vbasis, 2.0, -0.5))
        p2 = chg.point(combo(vbasis, 1.0, 1.0))
        assert p1.sign == -1 and p2.sign == 1
        assert chg.tance(p1, p2) == pytest.approx(-9.0 / 16.0, abs=1e-12)

    def test_tance_second_geodesic(self, vbasis):
        p2 = chg.point(combo(vbasis, 1.0, 1.0))
        p3 = chg.point(vbasis[2])
        assert chg.tance(p2, p3) == pytest.approx(81.0 / 64.0, abs=1e-12)
        assert chg.line_type(p2, p3) is chg.LineType.HYPERBOLIC

    def test_flipped_pair_is_spherical(self, vbasis):
        q2 = chg.point(combo(vbasis, 0.5, 2.0))
        p3 = chg.point(vbasis[2])
        assert q2.sign == 1
        assert chg.tance(q2, p3) == pytest.approx(9.0 / 16.0, abs=1e-12)
        assert chg.line_type(q2, p3) is chg.LineType.SPHERICAL

    def test_flipped_negative_point(self, vbasis):
        q1 = chg.point(combo(vbasis, 1.0, -1.0))
        q2 = chg.point(combo(vbasis, 0.5, 2.0))
        assert q1.sign == -1
        assert chg.tance(q1, q2) == pytest.approx(-9.0 / 16.0, abs=1e-12)

    def test_triple_invariants(self, vbasis):
        p1 = chg.point(combo(vbasis, 2.0, -0.5))
        p2 = chg.point(combo(vbasis, 1.0, 1.0))
        p3 = chg.point(vbasis[2])
        assert chg.alpha(p1, p2, p3) == pytest.approx(0.0, abs=1e-12)
        assert chg.beta(p1, p2, p3) == pytest.approx(25.0 / 32.0, abs=1e-12)
        assert chg.tau(p1, p2, p3) == pytest.approx(62.0 / 27.0, abs=1e-12)


def test_tance_is_squared_hyperbolic_cosine():
    # Ball center and a point at parameter tanh(s): distance 2s, so the
    # invariant must be cosh(s)^2.
    s = 1.0
    p = chg.point([0.0, 0.0, 1.0])
    q = chg.point([np.tanh(s), 0.0, 1.0])
    assert chg.tance(p, q) == pytest.approx(np.cosh(s) ** 2, rel=1e-14)


def test_point_rejects_isotropic():
    with pytest.raises(errors.IsotropicVector):
        chg.point([1.0, 0.0, 1.0])
    with pytest.raises(errors.IsotropicVector):
        chg.point([0.0, 0.0, 0.0])


def test_point_rejects_non_finite_input():
    with pytest.raises(ValueError):
        chg.point([np.nan, 0.0, 1.0])
    # squaring a complex inf raises numpy's invalid-value warning
    with np.errstate(invalid="ignore"):
        for x in (np.inf, -np.inf):
            with pytest.raises(ValueError):
                chg.point([1.0, x, 0.5])


def test_require_passes_at_the_bound_and_fails_nan():
    errors._require(1e-8, 1e-8, errors.NotAPentagon, "residual")
    for value in (2e-8, np.nan):
        with pytest.raises(errors.NotAPentagon) as info:
            errors._require(value, 1e-8, errors.NotAPentagon, "residual")
        assert info.value.value is value and info.value.bound == 1e-8


def test_isotropic_error_carries_value_and_bound():
    # |s| / |v|^2 = 1e-6 / (2 + 1e-6), below the tolerance 1e-5
    with pytest.raises(errors.IsotropicVector) as info:
        chg.point([1.0, 0.0, np.sqrt(1.0 - 1e-6)], tol=1e-5)
    assert info.value.value == pytest.approx(1e-6 / (2.0 + 1e-6), rel=1e-9)
    assert info.value.bound == 1e-5
    with pytest.raises(errors.IsotropicVector) as info:
        chg.point([1.0, 0.0, 1.0])
    assert info.value.value == 0.0 and info.value.bound == chg.DEFAULT_TOL


def reference_point(v, tol=1e-9):
    """point() written with numpy reductions over the three entries; the
    library's version must reproduce it bit for bit."""
    v = np.asarray(v, dtype=complex).reshape(3)
    norm2 = float(np.vdot(v, v).real)
    if norm2 == 0.0:
        raise errors.IsotropicVector("zero vector spans no point")
    s = chg.self_product(v)
    if abs(s) <= tol * norm2:
        raise errors.IsotropicVector("isotropic")
    rep = v / np.sqrt(abs(s))
    k = int(np.argmax(np.abs(rep)))
    rep = rep * (abs(rep[k]) / rep[k])
    rep[k] = rep[k].real
    return rep, 1 if s > 0 else -1


def test_point_is_bitwise_reference():
    rng = default_rng(23)
    for i in range(2000):
        v = random_vector(rng) * 10.0 ** rng.uniform(-3.0, 3.0)
        if i % 5 == 0:
            v[1] = 1j * v[0]  # equal moduli: the first one must win
        if i % 7 == 0:
            v[rng.integers(3)] = 0.0
        try:
            rep, sign = reference_point(v)
        except errors.IsotropicVector:
            with pytest.raises(errors.IsotropicVector):
                chg.point(v)
            continue
        p = chg.point(v)
        assert np.array_equal(p.rep, rep) and p.sign == sign
    for v in ([1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1e-3, 1e-3j, np.sqrt(2) * 1e-3]):
        with pytest.raises(errors.IsotropicVector):
            reference_point(v)
        with pytest.raises(errors.IsotropicVector):
            chg.point(v)


def test_self_product_is_bitwise_form():
    """self_product must give float(form(u, u).real) bit for bit, that is
    the form evaluated on 0-d slices, written out here."""
    rng = default_rng(24)
    vectors = [
        [1.0, 0.0, 1.0],
        [0.0, 0.0, 0.0],
        np.array([0.0, 2.0, 0.0]),
        np.array([3j, 0.0, 1.0 - 1j]),
    ]
    for i in range(5000):
        v = random_vector(rng) * 10.0 ** rng.uniform(-3.0, 3.0)
        if i % 7 == 0:
            v[rng.integers(3)] = 0.0
        if i % 11 == 0:
            v = v.real.copy()
        vectors.append(v)
    for v in vectors:
        u = np.asarray(v)
        want = float(
            (
                u[..., 0] * u[..., 0].conj()
                + u[..., 1] * u[..., 1].conj()
                - u[..., 2] * u[..., 2].conj()
            ).real
        )
        assert np.array_equal(chg.self_product(v), want)


def test_point_canonicalization_is_scale_free():
    rng = default_rng(7)
    for _ in range(50):
        v = random_vector(rng)
        if abs(chg.self_product(v)) < 0.05:
            continue
        c = rng.standard_normal() + 1j * rng.standard_normal()
        a = chg.point(v)
        b = chg.point(c * v)
        assert a.sign == b.sign
        assert np.array_equal(a.rep, b.rep) or np.allclose(a.rep, b.rep, atol=1e-13)
        assert chg.projectively_equal(a, b)


def test_point_rep_is_normalized():
    rng = default_rng(11)
    for _ in range(50):
        p = random_point(rng)
        assert chg.self_product(p.rep) == pytest.approx(p.sign, abs=1e-12)
        k = int(np.argmax(np.abs(p.rep)))
        assert p.rep[k].imag == 0.0
        assert p.rep[k].real > 0.0


def test_projective_equality_is_not_tance_one():
    # A euclidean pair has tance exactly 1 yet the points differ.
    p = chg.point([0.0, 1.0, 0.0])
    q = chg.point([1.0, 1.0, 1.0])
    assert chg.tance(p, q) == pytest.approx(1.0, abs=1e-15)
    assert not chg.projectively_equal(p, q)
    assert chg.line_type(p, q) is chg.LineType.EUCLIDEAN


def test_line_type_rejects_equal_points():
    p = chg.point([0.3, 0.1j, 1.0])
    q = chg.point([-0.6, -0.2j, -2.0])
    with pytest.raises(errors.SamePoint):
        chg.line_type(p, q)


def test_polar_point_axis_case():
    p = chg.point([1.0, 0.0, 0.0])
    q = chg.point([0.0, 0.0, 1.0])
    pol = chg.polar_point(p, q)
    assert np.allclose(pol.rep, [0.0, 1.0, 0.0])


def test_polar_point_orthogonality():
    rng = default_rng(3)
    found = {chg.LineType.HYPERBOLIC: 0, chg.LineType.SPHERICAL: 0}
    for _ in range(100):
        p, q = random_point(rng), random_point(rng)
        try:
            lt = chg.line_type(p, q)
        except errors.SamePoint:
            continue
        if lt is chg.LineType.EUCLIDEAN:
            continue
        pol = chg.polar_point(p, q)
        assert abs(chg.form(pol.rep, p.rep)) < 1e-10
        assert abs(chg.form(pol.rep, q.rep)) < 1e-10
        found[lt] += 1
        # A polar of a hyperbolic line sits outside the ball, of a
        # spherical line inside.
        assert pol.sign == (1 if lt is chg.LineType.HYPERBOLIC else -1)
    assert found[chg.LineType.HYPERBOLIC] > 10
    assert found[chg.LineType.SPHERICAL] > 10


def test_cross_is_bitwise_numpy():
    rng = default_rng(25)
    for i in range(5000):
        a, b = random_vector(rng), random_vector(rng)
        if i % 3 == 0:
            a, b = a.real.astype(complex), b.real.astype(complex)
        if i % 5 == 0:
            a[rng.integers(3)] = 0.0
        if i % 7 == 0:
            b[rng.integers(3)] = 0.0
        if i % 11 == 0:
            a, b = a.real, b.real
        got, want = chg.core._cross(a, b), np.cross(a, b)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_polar_point_euclidean_line_fails():
    p = chg.point([0.0, 1.0, 0.0])
    q = chg.point([1.0, 1.0, 1.0])
    with pytest.raises(errors.EuclideanLine):
        chg.polar_point(p, q)


def test_project_orthogonal():
    rng = default_rng(5)
    for _ in range(50):
        base = random_point(rng)
        v = random_vector(rng)
        w = chg.project_orthogonal(base, v)
        assert abs(chg.form(w, base.rep)) < 1e-10
        # v - w is parallel to the base vector
        resid = (v - w) - chg.form(v - w, base.rep) / base.sign * base.rep
        assert np.linalg.norm(resid) < 1e-10


def test_gram_matches_elementwise_products():
    rng = default_rng(13)
    pts = [random_point(rng) for _ in range(4)]
    G = chg.gram(pts).m
    for j in range(4):
        for k in range(4):
            assert G[j, k] == pytest.approx(chg.form(pts[j].rep, pts[k].rep))
    assert np.allclose(G, G.conj().T)


def test_realize_gram_random_roundtrip():
    rng = default_rng(17)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            vecs = [random_vector(rng) for _ in range(n)]
            G = (np.array(vecs).conj() @ chg.J @ np.array(vecs).T).T
            out = chg.realize_gram(G, tol=1e-9)
            assert out.shape == (n, 3)
            assert np.allclose(chg.gram(out).m, G, atol=1e-9 * max(1, abs(G).max()))


def test_realize_gram_incompatible_inertia():
    with pytest.raises(errors.IncompatibleInertia):
        chg.realize_gram(np.eye(3))
    with pytest.raises(errors.IncompatibleInertia):
        chg.realize_gram(np.diag([1.0, -1.0, -1.0]))


def test_realize_gram_rejects_non_hermitian():
    with pytest.raises(ValueError):
        chg.realize_gram(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_tau_degenerate():
    p1 = chg.point([1.0, 0.0, 0.0])
    p2 = chg.point([0.0, 1.0, 0.0])
    p3 = chg.point([0.0, 0.0, 1.0])
    with pytest.raises(errors.DegenerateTau):
        chg.tau(p1, p2, p3)


finite = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(finite, min_size=12, max_size=12), finite, finite)
def test_invariants_are_scale_free(xs, cre, cim):
    u = np.array(xs[0:3]) + 1j * np.array(xs[3:6])
    w = np.array(xs[6:9]) + 1j * np.array(xs[9:12])
    c = complex(cre, cim)
    if abs(c) < 1e-2 or abs(chg.self_product(u)) < 1e-2 or abs(chg.self_product(w)) < 1e-2:
        return
    assert chg.tance(u, w) == pytest.approx(chg.tance(c * u, w), rel=1e-9)
    assert chg.tance(u, w) == pytest.approx(chg.tance(u, c * w), rel=1e-9)
