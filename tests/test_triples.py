"""Classification, surface coordinates, and bending moves of triples."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from chgeom import core
from chgeom.core import (
    alpha,
    beta,
    form,
    point,
    polar_point,
    projectively_equal,
    realize_gram,
    self_product,
    tance,
    tau,
)
from chgeom.errors import (
    InadmissibleCoords,
    IncompatibleInvariants,
    NotConjugate,
    NotStronglyRegular,
    TraceMinusOne,
    Unreachable,
)
from chgeom.isometry import Isometry, centralizer_basis, reflection
from chgeom.paths import bending, orthogonal_partner, tangent
from chgeom.sampling import (
    default_rng,
    random_isometry,
    random_negative_point,
    random_strongly_regular_coords,
    random_strongly_regular_triple,
)
from chgeom.triples import (
    Move,
    SCoords,
    Triple,
    TripleClass,
    apply_bend_program,
    classify_triple,
    connect_triples,
    decompose_three_reflections,
    horizontal_line,
    s_coords,
    standard_gram,
    tangent_ef_residual,
    triple,
    triple_from_coords,
    validate_coords,
    vertical_line,
)

PATTERNS = [(-1, -1, -1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]

J = np.diag([1.0, 1.0, -1.0])


def form_residual(m):
    return np.abs(m.conj().T @ J @ m - J).max()

# all-negative example with both consecutive invariants equal to 4 sitting
# exactly on the ramification locus t = 1; the relation forces beta = 9
EXAMPLE = SCoords(t=1.0, t1=4.0, t2=4.0, sigma=(-1, -1, -1), alpha=0.0, beta=9.0)


def random_triple_of_points(rng):
    return triple(
        random_negative_point(rng),
        random_negative_point(rng),
        random_negative_point(rng),
    )


def coords_like(c: SCoords, t1: float, t2: float, sheet: int) -> SCoords:
    """Another point on the same surface (same signs, alpha, beta)."""
    rhs = (
        1.0
        - (t1 + t2 + c.beta - 1.0) / (t1 * t2)
        - c.alpha**2 / (t1 * t2) ** 2
    )
    assert rhs > 0.0
    return SCoords(
        t=1.0 + sheet * np.sqrt(rhs),
        t1=t1,
        t2=t2,
        sigma=c.sigma,
        alpha=c.alpha,
        beta=c.beta,
    )


def assert_triples_match(g: Isometry, A: Triple, B: Triple, tol: float) -> None:
    for pa, pb in zip(A.points, B.points):
        assert projectively_equal(g.apply(pa), pb, tol)


class TestSurfaceCoordinates:
    def test_example_satisfies_relation_exactly(self):
        assert EXAMPLE.residual() == 0.0
        validate_coords(EXAMPLE)

    def test_example_roundtrip(self):
        T = triple_from_coords(EXAMPLE)
        assert classify_triple(T) is TripleClass.REAL_STRONGLY_REGULAR
        c = s_coords(T)
        np.testing.assert_allclose(
            [c.t, c.t1, c.t2, c.alpha, c.beta], [1.0, 4.0, 4.0, 0.0, 9.0], atol=1e-9
        )

    def test_measured_coordinates_satisfy_relation(self):
        # the coordinates of raw triples are measured by independent
        # formulas, so the vanishing residual is a genuine identity check
        rng = default_rng(7)
        n = 0
        while n < 25:
            T = random_triple_of_points(rng)
            if classify_triple(T) is not TripleClass.STRONGLY_REGULAR:
                continue
            c = s_coords(T)
            scale = max(1.0, abs(c.t1 * c.t2) * (1.0 + (c.t - 1.0) ** 2))
            assert abs(c.residual()) <= 1e-10 * scale
            n += 1

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_coords_roundtrip(self, pattern):
        rng = default_rng(11 + 7 * PATTERNS.index(pattern))
        for _ in range(10):
            c = random_strongly_regular_coords(rng, sigma=pattern)
            d = s_coords(triple_from_coords(c))
            assert d.sigma == pattern
            for got, want in [
                (d.t, c.t),
                (d.t1, c.t1),
                (d.t2, c.t2),
                (d.alpha, c.alpha),
                (d.beta, c.beta),
            ]:
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_standard_gram_shape(self):
        rng = default_rng(13)
        c = random_strongly_regular_coords(rng)
        G = standard_gram(c)
        assert np.allclose(G, G.conj().T)
        assert np.allclose(np.diag(G).real, c.sigma)
        assert G[0, 1].real > 0 and G[0, 1].imag == 0
        assert G[1, 2].real > 0 and G[1, 2].imag == 0
        realize_gram(G)  # has signature (2, 1)

    def test_real_coords_give_real_class(self):
        rng = default_rng(17)
        for _ in range(5):
            T = random_strongly_regular_triple(rng, real=True)
            assert classify_triple(T) is TripleClass.REAL_STRONGLY_REGULAR

    def test_wrong_pair_sign_rejected(self):
        c = SCoords(t=1.5, t1=2.0, t2=2.0, sigma=(1, -1, -1), alpha=0.3, beta=-1.0)
        with pytest.raises(InadmissibleCoords):
            validate_coords(c)

    def test_non_hyperbolic_pair_rejected(self):
        c = SCoords(t=1.5, t1=0.5, t2=4.0, sigma=(-1, -1, -1), alpha=0.3, beta=2.0)
        with pytest.raises(InadmissibleCoords):
            validate_coords(c)

    def test_two_positive_signs_rejected(self):
        c = SCoords(t=1.5, t1=-2.0, t2=-2.0, sigma=(1, 1, -1), alpha=0.3, beta=-1.0)
        with pytest.raises(InadmissibleCoords):
            validate_coords(c)

    def test_wrong_beta_sign_rejected(self):
        # beta follows from the relation but lands on the non-realizable side
        t1 = t2 = 2.0
        b = 1.0 - t1 - t2 + t1 * t2 - t1 * t2 * 0.0 - 9.0 / (t1 * t2)
        assert b < 0.0
        c = SCoords(t=1.0, t1=t1, t2=t2, sigma=(-1, -1, -1), alpha=3.0, beta=b)
        with pytest.raises(InadmissibleCoords):
            validate_coords(c)

    def test_nan_t_rejected(self):
        c = SCoords(t=np.nan, t1=-2.0, t2=4.0, sigma=(1, -1, -1), alpha=0.3, beta=-0.2)
        with pytest.raises(InadmissibleCoords) as info:
            validate_coords(c)
        assert np.isnan(info.value.value) and info.value.bound == 1e-8

    def test_relation_violation_rejected(self):
        c = SCoords(
            t=EXAMPLE.t,
            t1=EXAMPLE.t1,
            t2=EXAMPLE.t2,
            sigma=EXAMPLE.sigma,
            alpha=EXAMPLE.alpha,
            beta=EXAMPLE.beta + 0.1,
        )
        with pytest.raises(InadmissibleCoords) as info:
            validate_coords(c)
        assert info.value.value == pytest.approx(0.1, rel=1e-9)
        assert info.value.value > info.value.bound >= 1e-8

    def test_real_with_positive_point_rejected(self):
        c = SCoords(t=1.5, t1=-2.0, t2=2.0, sigma=(1, -1, -1), alpha=0.0, beta=-2.0)
        assert abs(c.residual()) < 1e-14
        with pytest.raises(InadmissibleCoords):
            validate_coords(c)


def reference_coords(T: Triple) -> list[float]:
    """(t, t1, t2, alpha, beta) by the point-level formulas, one pairing at
    a time, as the invariants were computed before the Gram reader."""
    a, b, c = (p.rep for p in T.points)
    sa, sb, sc = self_product(a), self_product(b), self_product(c)
    g12, g23, g13 = form(a, b), form(b, c), form(a, c)
    G = np.array([[form(u, v) for v in (a, b, c)] for u in (a, b, c)])
    return [
        (g13 * form(b, b) / (g12 * g23)).real,
        abs(g12) ** 2 / (sa * sb),
        abs(g23) ** 2 / (sb * sc),
        (g12 * g23 * form(c, a)).imag / (sa * sb * sc),
        np.linalg.det(G).real / (G[0, 0] * G[1, 1] * G[2, 2]).real,
    ]


# random_strongly_regular_triple(default_rng(5)) carried along the bending
# of (point([0, 0, 1]), point([0.5, 0, 1])) by s = 12.25, where its
# representatives reach euclidean norm 2.6e3.  |g12 g23| stays 2.77, but a
# degeneracy test scaled by the euclidean norms |a| |b|^2 |c| called it zero.
FAR_REPS = [
    [97.76614527272538 + 9.34917802092219e-05j,
     0.1230385366728617 - 0.0025865449528086597j,
     97.7713368358442 + 0j],
    [313.471800281857 + 0j,
     0.5455366415941704 - 0.015245815302020608j,
     313.47068031094994 + 2.915993185711649e-05j],
    [1830.9023520531282 - 1.8373599301558383e-20j,
     -0.09997221072730035 + 0.002748383156433126j,
     1830.902627873933 + 0j],
]


class TestGramReader:
    @pytest.mark.parametrize("pattern", PATTERNS + ["real"])
    def test_s_coords_matches_point_formulas(self, pattern):
        rng = default_rng(79 + (PATTERNS + ["real"]).index(pattern))
        for _ in range(25):
            if pattern == "real":
                T = random_strongly_regular_triple(rng, real=True)
            else:
                T = random_strongly_regular_triple(rng, sigma=pattern)
            c = s_coords(T)
            got = [c.t, c.t1, c.t2, c.alpha, c.beta]
            p1, p2, p3 = T.points
            public = [tau(p1, p2, p3), tance(p1, p2), tance(p2, p3),
                      alpha(p1, p2, p3), beta(p1, p2, p3)]
            for g, ref, pub in zip(got, reference_coords(T), public):
                assert abs(g - ref) <= 1e-13 * max(1.0, abs(ref))
                assert abs(g - pub) <= 1e-13 * max(1.0, abs(pub))

    def test_far_triple_keeps_its_shape_ratio(self):
        near = s_coords(random_strongly_regular_triple(default_rng(5)))
        far = triple(*(point(v) for v in FAR_REPS))
        assert max(np.linalg.norm(p.rep) for p in far.points) > 2.5e3
        c = s_coords(far)
        assert c.sigma == near.sigma
        for a, b in zip([c.t, c.t1, c.t2, c.alpha, c.beta],
                        [near.t, near.t1, near.t2, near.alpha, near.beta]):
            assert abs(a - b) <= 1e-8 * abs(b)

    def test_s_coords_builds_one_gram(self, count_calls):
        T = random_strongly_regular_triple(default_rng(73))
        counts = count_calls(core.form, core.gram)
        s_coords(Triple(*T.points))
        assert counts["gram"] == 1
        assert counts["form"] == 0


class TestClassification:
    def test_two_positive_points(self):
        T = triple(point([0.2, 0, 1]), point([1, 0, 0.1]), point([0, 1, 0.2]))
        assert classify_triple(T) is TripleClass.NOT_REGULAR

    def test_orthogonal_consecutive_pair(self):
        rng = default_rng(2)
        p1, p2 = random_negative_point(rng), random_negative_point(rng)
        T = triple(p1, p2, polar_point(p1, p2))
        assert classify_triple(T) is TripleClass.NOT_REGULAR

    def test_points_on_common_real_geodesic(self):
        rng = default_rng(3)
        p1, p2 = random_negative_point(rng), random_negative_point(rng)
        b = bending(p1, p2)
        p3 = b.evaluate(0.7).apply(p2)
        assert classify_triple(triple(p1, p2, p3)) is TripleClass.NOT_REGULAR
        # mixed signs: one point swapped for its positive orthogonal
        # partner on the polar family, still on the same real plane
        configs = [(p1, p2, p3)]
        for j in range(3):
            pts = [p1, p2, p3]
            pts[j] = orthogonal_partner(pts[j], b)
            assert pts[j].sign == 1
            configs.append(tuple(pts))
        for pts in configs:
            T = triple(*pts)
            for U in (T, T.apply(random_isometry(rng, 3.0))):
                assert classify_triple(U) is TripleClass.NOT_REGULAR

    def test_coplanar_complex_combination_is_regular(self):
        rng = default_rng(4)
        p1, p2 = random_negative_point(rng), random_negative_point(rng)
        p3 = point(p1.rep + (0.3 + 0.4j) * p2.rep)
        assert classify_triple(triple(p1, p2, p3)) is TripleClass.REGULAR

    def test_real_gram_with_positive_point_is_regular(self):
        G = np.array(
            [[1.0, 0.5, 0.2], [0.5, -1.0, 1.7], [0.2, 1.7, -1.0]], dtype=complex
        )
        T = triple(*(point(v) for v in realize_gram(G)))
        assert classify_triple(T) is TripleClass.REGULAR

    def test_generic_triples_are_strongly_regular(self):
        rng = default_rng(5)
        for _ in range(5):
            T = random_strongly_regular_triple(rng)
            assert classify_triple(T) is TripleClass.STRONGLY_REGULAR

    def test_s_coords_requires_strong_regularity(self):
        T = triple(point([0.2, 0, 1]), point([1, 0, 0.1]), point([0, 1, 0.2]))
        with pytest.raises(NotStronglyRegular):
            s_coords(T)


class TestCoordinateMoves:
    def test_vertical_move_hits_target_and_freezes_the_rest(self):
        rng = default_rng(23)
        for _ in range(8):
            T = random_strongly_regular_triple(rng)
            c = s_coords(T)
            target = 1.8 * c.t2
            T2, mv = vertical_line(T, target)
            d = s_coords(T2)
            assert mv.pair == "12"
            assert abs(d.t2 - target) <= 1e-9 * max(1.0, abs(target))
            assert abs(d.t1 - c.t1) <= 1e-12 * max(1.0, abs(c.t1))
            assert abs(d.alpha - c.alpha) <= 1e-12
            assert abs(d.beta - c.beta) <= 1e-12 * max(1.0, abs(c.beta))
            assert np.sign(d.t - 1.0) == np.sign(c.t - 1.0)

    def test_horizontal_move_hits_target_and_freezes_the_rest(self):
        rng = default_rng(29)
        for _ in range(8):
            T = random_strongly_regular_triple(rng)
            c = s_coords(T)
            target = 1.8 * c.t1
            T2, mv = horizontal_line(T, target)
            d = s_coords(T2)
            assert mv.pair == "23"
            assert abs(d.t1 - target) <= 1e-9 * max(1.0, abs(target))
            assert abs(d.t2 - c.t2) <= 1e-12 * max(1.0, abs(c.t2))
            assert abs(d.alpha - c.alpha) <= 1e-12
            assert abs(d.beta - c.beta) <= 1e-12 * max(1.0, abs(c.beta))

    def test_sheet_targets_sum_to_two(self):
        # both preimages of one (t1, t2) point have t = 1 +- the same root
        rng = default_rng(31)
        T = random_strongly_regular_triple(rng)
        target = 2.2 * s_coords(T).t2
        tp = s_coords(vertical_line(T, target, sheet=+1)[0]).t
        tm = s_coords(vertical_line(T, target, sheet=-1)[0]).t
        assert tp > 1.0 > tm
        assert abs(tp + tm - 2.0) <= 1e-7

    def test_program_replay_matches_stepwise_moves(self):
        rng = default_rng(37)
        T = random_strongly_regular_triple(rng)
        c = s_coords(T)
        T1, mv1 = vertical_line(T, 1.6 * c.t2)
        T2, mv2 = horizontal_line(T1, 1.4 * c.t1)
        replay = apply_bend_program(T, [mv1, mv2])
        for pa, pb in zip(replay.points, T2.points):
            assert projectively_equal(pa, pb, 1e-10)

    def test_unknown_pair_is_rejected(self):
        T = random_strongly_regular_triple(default_rng(38))
        for pair in ("34", "51"):
            with pytest.raises(ValueError):
                apply_bend_program(T, [Move(pair=pair, s=0.1)])

    def test_invariant_drift_along_move_chain(self):
        rng = default_rng(41)
        T = random_strongly_regular_triple(rng, sigma=(-1, -1, -1))
        c0 = s_coords(T)
        factors = [1.5, 1.25, 2.0, 1.75, 1.3, 1.6]
        for i, f in enumerate(factors):
            c = s_coords(T)
            if i % 2 == 0:
                T, _ = vertical_line(T, f * c.t2)
            else:
                T, _ = horizontal_line(T, f * c.t1)
        c1 = s_coords(T)
        assert abs(c1.alpha - c0.alpha) <= 1e-12
        assert abs(c1.beta - c0.beta) <= 1e-12 * max(1.0, abs(c0.beta))

    def test_unreachable_below_scanned_minimum(self):
        rng = default_rng(43)
        T = random_strongly_regular_triple(rng, sigma=(-1, -1, -1))
        b = bending(T.p1, T.p2)
        scanned = min(
            tance(b.evaluate(s).apply(T.p2), T.p3)
            for s in np.linspace(-4.0, 4.0, 801)
        )
        with pytest.raises(Unreachable) as info:
            vertical_line(T, scanned - 1.0)
        # the target and the profile minimum it fell below
        assert info.value.value == scanned - 1.0
        assert info.value.bound == pytest.approx(scanned, abs=1e-3)

    def test_ramification_at_profile_minimum(self):
        rng = default_rng(47)
        T = random_strongly_regular_triple(rng, sigma=(-1, -1, -1))
        b = bending(T.p1, T.p2)

        def profile(s):
            return tance(b.evaluate(s).apply(T.p2), T.p3)

        grid = np.linspace(-4.0, 4.0, 801)
        s0 = grid[int(np.argmin([profile(s) for s in grid]))]
        res = minimize_scalar(profile, bounds=(s0 - 0.5, s0 + 0.5), method="bounded")
        T2, _ = vertical_line(T, res.fun)
        assert abs(tau(T2.p1, T2.p2, T2.p3) - 1.0) <= 1e-3
        assert abs(tance(T2.p2, T2.p3) - res.fun) <= 1e-6 * max(1.0, abs(res.fun))


class TestConnect:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_connects_random_pairs(self, pattern):
        rng = default_rng(53 + PATTERNS.index(pattern))
        for _ in range(4):
            ca = random_strongly_regular_coords(rng, sigma=pattern)
            t1 = ca.t1 * rng.uniform(1.1, 2.5)
            t2 = ca.t2 * rng.uniform(1.1, 2.5)
            cb = coords_like(ca, t1, t2, sheet=1 if rng.random() < 0.5 else -1)
            A, B = triple_from_coords(ca), triple_from_coords(cb)
            moves, g = connect_triples(A, B)
            assert len(moves) <= 3
            assert form_residual(g.m) <= 1e-9
            assert_triples_match(g, apply_bend_program(A, moves), B, 1e-8)

    def test_three_move_connection(self):
        # (t1 - 1)(t2 - 1) >= beta marks horizontal reachability for the
        # all-negative real pattern; these two points both clear it while
        # the direct horizontal leg from A to t1 of B does not
        beta = 2.0
        base = SCoords(t=1.0, t1=0.0, t2=0.0, sigma=(-1, -1, -1), alpha=0.0, beta=beta)
        ca = coords_like(base, 5.0, 1.7, sheet=1)
        cb = coords_like(base, 1.8, 4.5, sheet=1)
        assert (ca.t1 - 1.0) * (ca.t2 - 1.0) >= beta
        assert (cb.t1 - 1.0) * (cb.t2 - 1.0) >= beta
        assert (cb.t1 - 1.0) * (ca.t2 - 1.0) < beta
        A, B = triple_from_coords(ca), triple_from_coords(cb)
        moves, g = connect_triples(A, B)
        assert [m.pair for m in moves] == ["12", "23", "12"]
        assert_triples_match(g, apply_bend_program(A, moves), B, 1e-8)

    def test_sheet_flip_at_equal_coordinates(self):
        rng = default_rng(59)
        ca = random_strongly_regular_coords(rng)
        cb = SCoords(
            t=2.0 - ca.t,
            t1=ca.t1,
            t2=ca.t2,
            sigma=ca.sigma,
            alpha=ca.alpha,
            beta=ca.beta,
        )
        A, B = triple_from_coords(ca), triple_from_coords(cb)
        moves, g = connect_triples(A, B)
        assert [m.pair for m in moves] == ["12", "12"]
        assert_triples_match(g, apply_bend_program(A, moves), B, 1e-8)

    def test_ill_conditioned_order_falls_back(self):
        # bending 23 first and 12 second pushes a representative of this
        # pair to euclidean norm ~260, where the conjugator's roundoff
        # costs the replay seven digits; the other order stays near norm 14
        A = triple(
            point([-0.8872251251470228 + 0.05191566010248648j,
                   0.5102074518420341 - 0.019970228486319422j,
                   1.4319825810382487 + 0j]),
            point([-0.6431738801233882 - 0.004889809667455753j,
                   -0.5932280744991215 + 0.01152117604129658j,
                   1.3288148238873874 + 0j]),
            point([1.6379723920877214 + 0j,
                   0.04408692853362205 + 0.01164888990041832j,
                   1.2974271856966286 + 0.041419910192312094j]),
        )
        B = triple(
            point([3.4092340346893564 + 0.5075768804872136j,
                   -1.396498947224479 - 0.9768213406715177j,
                   3.973021549662143 + 0j]),
            point([2.9411077121345546 - 0.6990402472074654j,
                   0.3175914770789615 - 0.6996542845162235j,
                   3.275538475693475 + 0j]),
            point([16.40807241903196 - 4.270545560439238j,
                   2.996053085445418 - 3.4949484390055936j,
                   17.540051270566437 + 0j]),
        )
        moves, g = connect_triples(A, B)
        assert len(moves) <= 3
        bent = apply_bend_program(A, moves)
        assert max(np.linalg.norm(p.rep) for p in bent.points) <= 1e2
        ca, cb = s_coords(bent.apply(g)), s_coords(B)
        for a, b in ((ca.t, cb.t), (ca.t1, cb.t1), (ca.t2, cb.t2)):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))
        assert_triples_match(g, bent, B, 1e-8)

    def test_connecting_a_triple_to_itself_needs_no_moves(self):
        rng = default_rng(61)
        A = random_strongly_regular_triple(rng)
        moves, g = connect_triples(A, A)
        assert moves == []
        assert np.abs(g.m - np.eye(3)).max() <= 1e-9

    def test_incompatible_alpha_beta_carry_value_and_bound(self):
        rng = default_rng(67)
        A = random_strongly_regular_triple(rng, sigma=(-1, -1, -1))
        B = random_strongly_regular_triple(rng, sigma=(-1, -1, -1))
        ca, cb = s_coords(A), s_coords(B)
        with pytest.raises(IncompatibleInvariants) as info:
            connect_triples(A, B)
        want = max(abs(ca.alpha - cb.alpha), abs(ca.beta - cb.beta))
        assert info.value.value == want
        assert info.value.bound == 1e-7 * max(1.0, abs(ca.beta))

    def test_incompatible_invariants(self):
        rng = default_rng(67)
        A = random_strongly_regular_triple(rng, sigma=(-1, -1, -1))
        B = random_strongly_regular_triple(rng, sigma=(-1, -1, -1))
        with pytest.raises(IncompatibleInvariants):
            connect_triples(A, B)
        C = random_strongly_regular_triple(rng, sigma=(1, -1, -1))
        with pytest.raises(IncompatibleInvariants):
            connect_triples(A, C)


class TestDecompose:
    def test_reflection_products_roundtrip(self):
        rng = default_rng(71)
        for _ in range(10):
            T = random_strongly_regular_triple(rng)
            F = T.product()
            D = decompose_three_reflections(F)
            scale = float(np.abs(F.m).max())
            assert np.abs(D.product().m - F.m).max() <= 1e-8 * max(1.0, scale)

    def test_loxodromic_isometries_roundtrip(self):
        rng = default_rng(73)
        n = 0
        while n < 10:
            F = random_isometry(rng, scale=0.8)
            if np.abs(np.linalg.eigvals(F.m)).max() < 1.05:
                continue
            D = decompose_three_reflections(F)
            scale = float(np.abs(F.m).max())
            assert np.abs(D.product().m - F.m).max() <= 1e-8 * max(1.0, scale)
            n += 1

    def test_single_reflection_raises_trace_minus_one(self):
        rng = default_rng(79)
        with pytest.raises(TraceMinusOne):
            decompose_three_reflections(reflection(random_negative_point(rng)))

    def test_elliptic_either_decomposes_or_reports_honestly(self):
        th = np.array([0.4, 0.9, -1.3])
        F = Isometry(m=np.diag(np.exp(1j * th)))
        try:
            D = decompose_three_reflections(F)
        except NotConjugate:
            return
        assert np.abs(D.product().m - F.m).max() <= 1e-8


class TestTangentCondition:
    @staticmethod
    def flow_tangents(T, y):
        out = []
        for p in T.points:
            w = y @ p.rep
            lam = p.sign * form(w, p.rep)
            out.append(tangent(p, w - lam * p.rep))
        return out

    def test_centralizer_flow_satisfies_condition(self):
        rng = default_rng(83)
        T = random_strongly_regular_triple(rng)
        F = T.product()
        for y in centralizer_basis(F):
            tg1, tg2, tg3 = self.flow_tangents(T, y)
            assert tangent_ef_residual(T, tg1, tg2, tg3) <= 1e-9 * max(
                1.0, float(np.abs(y).max())
            )

    def test_zero_tangents_are_flat(self):
        rng = default_rng(89)
        T = random_strongly_regular_triple(rng)
        tgs = [tangent(p, np.zeros(3)) for p in T.points]
        assert tangent_ef_residual(T, *tgs) == 0.0

    def test_generic_tangents_fail_the_condition(self):
        rng = default_rng(97)
        T = random_strongly_regular_triple(rng)
        tgs = []
        for p in T.points:
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lam = p.sign * form(w, p.rep)
            tgs.append(tangent(p, w - lam * p.rep))
        assert tangent_ef_residual(T, *tgs) > 1e-6
