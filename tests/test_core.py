"""Core form, points, invariants.

The main oracle is a configuration built over a pair of isotropic vectors
v1, v2 with <v1, v2> = 1/2 and a unit positive vector v3 pairing as
<v1, v3> = 1, <v2, v3> = 1/8.  Every invariant below was computed by hand in
exact rational arithmetic from that Gram and is frozen here.
"""

import dataclasses

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


def test_require_above_fails_at_the_bound_and_on_nan():
    errors._require_above(2e-8, 1e-8, errors.OrthogonalPoints, "pairing")
    for value in (1e-8, 0.0, np.nan):
        with pytest.raises(errors.OrthogonalPoints) as info:
            errors._require_above(value, 1e-8, errors.OrthogonalPoints, "pairing")
        assert info.value.value is value and info.value.bound == 1e-8
    assert str(info.value) == "pairing nan is not above 1.00e-08"


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
    # the anchor: the first entry within 1e-12 (relative) of the largest modulus
    mags = np.abs(rep)
    k = int(np.flatnonzero(mags >= mags.max() * (1.0 - 1e-12))[0])
    rep = rep * (abs(rep[k]) / rep[k])
    rep[k] = rep[k].real
    return rep, 1 if s > 0 else -1


def test_point_is_bitwise_reference():
    rng = default_rng(23)
    for i in range(2000):
        v = random_vector(rng) * 10.0 ** rng.uniform(-3.0, 3.0)
        if i % 5 == 0:
            v[1] = 1j * v[0]  # equal moduli: the first one must win
        if i % 3 == 0:
            # a later entry larger by a near-tie (inside 1e-12: the first
            # one still wins) or by a clear margin (outside: it wins)
            j = int(rng.integers(1, 3))
            v[j] = v[0] * np.exp(1j * rng.uniform(0, 2 * np.pi))
            v[j] *= 1.0 + rng.choice([1e-15, 1e-13, 5e-13, 1e-11, 1e-9])
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


def test_point_is_a_frozen_slotted_value():
    p = chg.point([0.3 + 0.1j, -0.2j, 1.0])
    assert not hasattr(p, "__dict__")
    assert not p.rep.flags.writeable
    for field in ("rep", "sign"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, field, getattr(p, field))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(p, field)
    q = chg.Point(rep=p.rep, sign=p.sign)
    assert q.rep is p.rep and q.sign == p.sign


def test_point_reads_every_form_of_a_vector_alike():
    # a complex (3,) array takes point's fast path as it is, every other
    # form goes through asarray and reshape: the bits must not depend on it
    rng = default_rng(25)
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        x = rng.standard_normal(3) * scale
        z = x + 1j * rng.standard_normal(3) * scale
        for v in (x, z):
            strided = np.zeros((3, 2), dtype=complex)
            strided[:, 1] = v
            forms = [
                v.tolist(),
                tuple(v.tolist()),
                v,
                v.reshape(3, 1),
                v.astype(complex),
                v.astype(complex).reshape(3, 1),
                v.astype(complex).reshape(1, 3),
                strided[:, 1],
            ]
            want = chg.point(forms[0])
            for form in forms[1:]:
                got = chg.point(form)
                assert got.rep.tobytes() == want.rep.tobytes() and got.sign == want.sign
            # the input is read, never written
            assert np.array_equal(strided[:, 1], v)


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


def test_form_of_two_vectors_is_bitwise_the_stacked_form():
    """form of two (3,) arrays takes one array product and self_product's
    sum; it must give the bits of the stacked path, which is the form on
    0-d slices written out here and form of (1, 3) stacks, type included.
    The vectors are contiguous, column views of a bending's frame,
    real-valued complex or real, with entries of exactly +-0.0."""
    rng = default_rng(26)
    zeros = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)]
    pairs = [(np.array(zeros[:3]), np.array(zeros[1:]))]
    for i in range(3000):
        u = random_vector(rng)
        v = random_vector(rng) * 10.0 ** rng.uniform(-3.0, 3.0)
        if i % 3 == 0:
            u = u.real.astype(complex)
        if i % 5 == 0:
            u[rng.integers(3)] = zeros[rng.integers(4)]
        if i % 7 == 0:
            v[rng.integers(3)] = zeros[rng.integers(4)]
        pairs.append((u, v))
        if i % 11 == 0:
            pairs += [(u.real.copy(), v.real.copy()), (u.real.copy(), v)]
    for _ in range(300):
        p, q = random_point(rng), random_point(rng)
        try:
            b = chg.bending(p, q)
        except errors.GeometryError:
            continue
        pairs += [(b.cols[:, 0], q.rep), (b.cols[:, 1], b.cols[:, 2]), (p.rep, b.cols_inv[:, 0])]
    assert len(pairs) > 4000
    for u, v in pairs:
        got = chg.form(u, v)
        want = (
            u[..., 0] * v[..., 0].conj()
            + u[..., 1] * v[..., 1].conj()
            - u[..., 2] * v[..., 2].conj()
        )
        stacked = chg.form(u[None], v[None])[0]
        assert type(got) is type(want) is type(stacked)
        assert got.tobytes() == want.tobytes() == stacked.tobytes()


def test_long_stacks_are_bitwise_the_per_column_products():
    """normalized_lift pairs stacks of 10 000 rows.  One array product over
    a whole stack is not their bits: on the AVX-512 dispatch numpy rounds a
    complex product of some 10^4 entries otherwise than a short one."""
    rng = default_rng(28)
    u, v = (rng.normal(size=(10_000, 3)) + 1j * rng.normal(size=(10_000, 3)) for _ in "uv")
    for a, b in ((u, v), (u, u), (u[1:], v[:-1])):
        want = np.array([chg.form(x, y) for x, y in zip(a, b)])
        assert chg.form(a, b).tobytes() == want.tobytes()


def test_gram_is_bitwise_the_matmul_chain():
    # gram multiplies by ndarray.dot; the chain written with @ is the reference
    rng = default_rng(27)
    for i in range(600):
        points = [random_point(rng) for _ in range(2 + i % 4)]
        reps = np.array([p.rep for p in points])
        want = (reps.conj() @ chg.J @ reps.T).T
        got = chg.gram(points).m
        assert got.tobytes() == want.tobytes() and got.strides == want.strides


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


def test_point_anchor_is_tie_stable():
    # |v1| exceeds |v0| by 1e-14 relative, inside the 1e-12 tie band, so
    # the anchor stays at the first entry instead of following roundoff
    v = np.array([0.6 * np.exp(0.3j), 0.6 * (1.0 + 1e-14) * np.exp(-1.1j), 0.2j])
    rep = chg.point(v).rep
    assert rep[0].imag == 0.0 and rep[0].real > 0.0
    assert rep[1].imag != 0.0


def test_projective_equality_is_not_tance_one():
    # A euclidean pair has tance exactly 1 yet the points differ.
    p = chg.point([0.0, 1.0, 0.0])
    q = chg.point([1.0, 1.0, 1.0])
    assert chg.tance(p, q) == pytest.approx(1.0, abs=1e-15)
    assert not chg.projectively_equal(p, q)
    assert chg.line_type(p, q) is chg.LineType.EUCLIDEAN


def test_projective_equality_in_plain_floats_keeps_its_verdict():
    # the norms are taken with math.hypot; the verdict must be the one the
    # np.linalg.norm formula gives, for vectors of any length
    def reference(a, b, tol):
        return abs(np.vdot(a, b)) >= (1.0 - tol) * np.linalg.norm(a) * np.linalg.norm(b)

    rng = default_rng(19)
    verdicts = []
    for i in range(2000):
        n = (3, 3, 1, 2, 5)[i % 5]
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        # relative offsets from 1e-12 to 1e-6 for half the pairs, up to
        # 1e-2 for the other half, each rescaled by a random complex factor
        eps = 10.0 ** rng.uniform(-12.0, -6.0 if i % 2 else -2.0)
        c = rng.uniform(0.1, 10.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        b = c * (a + eps * np.linalg.norm(a) / np.linalg.norm(r) * r)
        for tol in (chg.DEFAULT_TOL, 1e-12, 1e-13):
            want = reference(a, b, tol)
            assert chg.projectively_equal(a, b, tol) == want, (i, tol)
            verdicts.append(want)
    assert 500 <= sum(verdicts) <= len(verdicts) - 500
    p, q = random_point(rng), random_point(rng)
    assert chg.projectively_equal(p, p) and not chg.projectively_equal(p, q)


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


def test_realize_gram_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="square matrix"):
        chg.realize_gram(np.zeros((2, 3)))


def test_tau_degenerate():
    p1 = chg.point([1.0, 0.0, 0.0])
    p2 = chg.point([0.0, 1.0, 0.0])
    p3 = chg.point([0.0, 0.0, 1.0])
    with pytest.raises(errors.DegenerateTau) as info:
        chg.tau(p1, p2, p3)
    assert info.value.value == 0.0 and info.value.bound == chg.DEFAULT_TOL
    # nearly orthogonal pairs: |g12 g23| / (sqrt|g11 g33| |g22|) is 2.5e-5
    # here, below the tolerance 1e-4 but above the default; the triples
    # layer raises the same numbers from the Gram it keeps
    q1 = chg.point([1.0, 0.0, 0.0])
    q2 = chg.point([0.005, 1.0, 0.0])
    q3 = chg.point([0.0, 0.005, 1.0])
    g = chg.gram((q1, q2, q3)).m
    want = abs(g[0, 1] * g[1, 2]) / (np.sqrt(abs(g[0, 0] * g[2, 2])) * abs(g[1, 1]))
    assert want == pytest.approx(2.5e-5, rel=1e-3)
    assert chg.tau_complex(q1, q2, q3) == pytest.approx(0.0, abs=1e-12)
    for call in (
        lambda: chg.tau_complex(q1, q2, q3, tol=1e-4),
        lambda: chg.core._shape_ratio(chg.triples.Triple(q1, q2, q3).gram().m, 1e-4),
    ):
        with pytest.raises(errors.DegenerateTau) as info:
            call()
        assert info.value.value == pytest.approx(want, rel=1e-12)
        assert info.value.bound == 1e-4


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
