"""Classification, surface coordinates, and bending moves of triples."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from chgeom import core, jsonio, paths
from chgeom import triples as triples_module
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
    IsotropicVector,
    NotConjugate,
    NotStronglyRegular,
    TraceMinusOne,
    Unreachable,
)
from chgeom.isometry import Isometry, centralizer_basis, isometry, reflection
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
    _closure_gap,
    _sheet_gap,
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


def boost(rapidity: float) -> Isometry:
    """The hyperbolic isometry of the (x0, x2) plane at this rapidity,
    through the validating constructor."""
    c, s = np.cosh(rapidity), np.sinh(rapidity)
    return isometry([[c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, c]])


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

    def test_residual_through_the_sheet_gap_keeps_every_verdict(self):
        # beta moved off the relation by 10^-9.5 to 10^-6.5 of the scale,
        # so about half the draws pass validate_coords' 1e-8 bound; the
        # residual written out term by term gives the same verdicts, and
        # the two forms differ by roundoff (at most 2.0e-15 of the scale
        # over 60 000 seeded draws)
        rng = default_rng(23)
        flips = passed = 0
        for k in range(4_000):
            c = random_strongly_regular_coords(rng, real=k % 4 == 3)
            scale = max(1.0, abs(c.t1 * c.t2) * (1.0 + (c.t - 1.0) ** 2))
            d = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.5, -6.5) * scale
            c = SCoords(c.t, c.t1, c.t2, c.sigma, c.alpha, c.beta + d)
            t1t2 = c.t1 * c.t2
            written_out = (
                t1t2 * (c.t - 1.0) ** 2 + c.t1 + c.t2 - t1t2 + c.beta - 1.0
                + c.alpha**2 / t1t2
            )
            assert abs(c.residual() - written_out) <= 4e-15 * scale
            try:
                validate_coords(c)
                ok = True
            except InadmissibleCoords:
                ok = False
            flips += ok != (abs(written_out) <= 1e-8 * scale)
            passed += ok
        assert flips == 0
        assert 1_600 <= passed <= 2_400

    @pytest.mark.parametrize("t1, t2, gap", [(-1e300, 4.0, 0.75), (-2.0, 1e300, 1.5)])
    def test_sheet_gap_does_not_overflow(self, t1, t2, gap):
        # (t1 t2)^2 is past the largest float: alpha^2 over it is 0, not an
        # OverflowError, and the gap tends to 1 - 1/t for the finite t
        got = _sheet_gap(t1, t2, 1.0, -2.0)
        assert isinstance(got, float)
        assert got == pytest.approx(gap, rel=1e-12)

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

    def test_signs_other_than_plus_minus_one_are_inadmissible(self):
        c = SCoords(t=1.0, t1=4.0, t2=4.0, sigma=(0, -1, -1), alpha=0.0, beta=9.0)
        with pytest.raises(InadmissibleCoords, match="signs must be"):
            validate_coords(c)

    def test_sampler_gives_up_after_a_thousand_rejections(self):
        class Lowest:
            """Each draw at the bottom of its range: t1 = t2 = 1.3 and
            t = 0.75 give beta = -0.015625, and the real all-negative
            pattern needs beta > 0.02."""

            def uniform(self, lo, hi):
                return lo

            def choice(self, options):
                return options[0]

        with pytest.raises(RuntimeError, match="rejection sampling failed"):
            random_strongly_regular_coords(Lowest(), real=True)

    def test_sampler_rejects_a_sigma_with_two_positive_points(self):
        with pytest.raises(InadmissibleCoords, match="at most one positive point"):
            random_strongly_regular_coords(default_rng(0), sigma=(1, 1, -1))

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

    def test_overflowing_squares_are_rejected(self):
        # (t - 1)^2 overflows: as a float ** it raised OverflowError, as a
        # product it is inf, and so is the residual it would bound
        c = SCoords(t=1e200, t1=4.0, t2=4.0, sigma=(-1, -1, -1), alpha=0.5, beta=9.0)
        assert c.residual() == np.inf
        with pytest.raises(InadmissibleCoords) as info:
            triple_from_coords(c)
        assert info.value.value == np.inf
        assert np.isfinite(info.value.bound)

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

    def test_alpha_reads_zero_within_unit_kappa_rounding(self):
        # coordinates have no representatives, so validate_coords reads
        # alpha with kappa = 1: zero up to tol + 32 eps
        eps = np.finfo(float).eps
        t1, t2, b = -2.0, 3.0, -0.5
        for a, real in ((1e-9 + 16 * eps, True), (1e-9 + 64 * eps, False)):
            c = SCoords(1.0 + np.sqrt(_sheet_gap(t1, t2, a, b)), t1, t2, (1, -1, -1), a, b)
            if real:
                with pytest.raises(InadmissibleCoords, match="real configuration"):
                    validate_coords(c)
            else:
                validate_coords(c)

    @pytest.mark.parametrize("a", [2e-9, 5e-9])
    def test_alpha_just_above_tol_round_trips(self, a):
        # classify_triple reads alpha as zero up to tol plus the rounding of
        # the representatives, 32 eps kappa, and validate_coords up to
        # tol + 32 eps: a canonical triple, whose representatives are small,
        # that reads as strongly regular has coordinates that build it again
        t1, t2, b = -2.0, 3.0, -0.5
        c = SCoords(1.0 + np.sqrt(_sheet_gap(t1, t2, a, b)), t1, t2, (1, -1, -1), a, b)
        T = triples_module._standard_triple(c)
        assert classify_triple(T) is TripleClass.STRONGLY_REGULAR
        c1 = s_coords(T)
        c2 = s_coords(triple_from_coords(c1))
        assert c2.sigma == (1, -1, -1)
        assert abs(c2.alpha - a) <= 1e-12 and abs(c2.beta - b) <= 1e-12

    @pytest.mark.parametrize("b", [1e-8, 1e-7])
    def test_built_triple_that_reads_back_regular_is_inadmissible(self, b):
        # the coordinates are admissible, but realize_gram drops the Gram's
        # small eigenvalue and the triple built reads beta ~ 1e-15 or less
        t1, t2, a = 3.0, 2.5, 0.3
        c = SCoords(1.0 + np.sqrt(_sheet_gap(t1, t2, a, b)), t1, t2, (-1, -1, -1), a, b)
        validate_coords(c)
        with pytest.raises(InadmissibleCoords, match="triple is regular"):
            triple_from_coords(c)

    def test_coordinates_too_far_out_to_realize_are_inadmissible(self):
        # the surface of the pentagon chart at t4 = 2, at t2 = 4: admissible
        # at t1 = -1e20, where standard_gram's entries are too large for
        # point to resolve three points; its IsotropicVector is the cause
        a, b = np.sqrt(3.0) * 7.0 / 16.0, -0.625
        t1, t2 = -1e20, 4.0
        c = SCoords(1.0 + np.sqrt(_sheet_gap(t1, t2, a, b)), t1, t2, (1, -1, -1), a, b)
        validate_coords(c)
        with pytest.raises(InadmissibleCoords, match="not realized") as info:
            triple_from_coords(c)
        assert isinstance(info.value.__cause__, IsotropicVector)

    def test_read_back_miss_carries_value_and_bound(self, monkeypatch):
        # a triple built from t1 off by 1e-6 (relative) misses t1 by that
        # much, and beta, which moves with t1, by more
        c = random_strongly_regular_coords(default_rng(29), sigma=(-1, -1, -1))
        standard_triple = triples_module._standard_triple

        def off_by(c, tol):
            return standard_triple(
                SCoords(c.t, c.t1 * (1.0 + 1e-6), c.t2, c.sigma, c.alpha, c.beta), tol
            )

        monkeypatch.setattr(triples_module, "_standard_triple", off_by)
        with pytest.raises(InadmissibleCoords) as info:
            triple_from_coords(c)
        assert info.value.bound == triples_module.CLOSURE_TOL
        assert info.value.value >= 0.999e-6


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

    def test_moved_real_triple_reads_real_in_its_own_precision(self):
        # draw 187 of default_rng(99) moved at scale 2: alpha = -7.9e-9 is
        # the rounding of representatives of squared norm 1.05e8, inside
        # 32 eps kappa.  The canonical triple rebuilt from its coordinates
        # has small representatives, and there that alpha reads generic.
        rng = default_rng(99)
        for i in range(188):
            T = random_strongly_regular_triple(rng, real=i % 4 == 3)
            g = random_isometry(rng, 2.0)
        M = T.apply(g)
        c = s_coords(M)
        assert abs(c.alpha) > 1e-9
        assert classify_triple(M) is TripleClass.REAL_STRONGLY_REGULAR
        assert classify_triple(triple_from_coords(c)) is TripleClass.STRONGLY_REGULAR

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
    def test_a_non_hyperbolic_pair_has_no_coordinate_move(self):
        # two positive points on a spherical line: not strongly regular
        p1 = point([1.0, 0.0, 0.0])
        p2 = point([np.cos(0.7), np.sin(0.7), 0.0])
        T = Triple(p1, p2, random_negative_point(default_rng(23)))
        with pytest.raises(ValueError, match="does not span a hyperbolic line"):
            vertical_line(T, 2.0)

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


def reference_coordinate_move(T, pair, target, sheet=None, tol=core.DEFAULT_TOL):
    """_coordinate_move as it was: bend the triple at every preimage, read
    each candidate's t from its Gram, and keep the best."""
    i = triples_module._PAIR_START[pair]
    b = bending(T.points[i], T.points[i + 1], tol)
    fixed = T.p3 if pair == "12" else T.p1
    cand_s = triples_module._bend_targets(b, T.p2, fixed, target, tol)
    t_now = triples_module._invariants(T)[2] if sheet is None else None
    best = None
    for s in cand_s:
        cand = Triple(*triples_module._bend(T.points, pair, s, tol, b))
        tc = triples_module._invariants(cand)[2]
        score = -abs(tc - t_now) if sheet is None else sheet * (tc - 1.0)
        if best is None or score > best[0]:
            best = (score, cand, s)
    return best[1], Move(pair=pair, s=best[2])


def move_cases():
    """(scale, triple, pair, target) over generic and real triples, unmoved
    (scale None) and moved by random isometries at scales 1.0 and 2.0, with
    targets both beyond the tracked coordinate and below it."""
    rng = default_rng(67)
    for real in (False, True):
        for scale in (None, 1.0, 2.0):
            for _ in range(4):
                T = random_strongly_regular_triple(rng, real=real)
                if scale is not None:
                    T = T.apply(random_isometry(rng, scale))
                c = s_coords(T)
                for pair, x in (("12", c.t2), ("23", c.t1)):
                    for f in (0.7, 1.3, 2.5):
                        yield scale, T, pair, f * x


def near_ramification_triples(rng, offsets):
    """For each d of offsets, a triple at t = 1 + d: signs, t1, t2 and
    alpha drawn as for random coordinates, beta from the surface relation."""
    for d in offsets:
        while True:
            c = random_strongly_regular_coords(rng)
            t1t2 = c.t1 * c.t2
            b = 1.0 - c.t1 - c.t2 + t1t2 - t1t2 * d**2 - c.alpha**2 / t1t2
            near = SCoords(1.0 + d, c.t1, c.t2, c.sigma, c.alpha, b)
            try:
                yield triple_from_coords(near)
            except InadmissibleCoords:
                continue
            break


def orientation_cases():
    """move_cases() and triples within 1e-3 to 1e-10 of the ramification,
    on either side, with the same targets."""
    yield from move_cases()
    offsets = [sign * 10.0**-k for k in range(3, 11) for sign in (1, -1)]
    for T in near_ramification_triples(default_rng(97), offsets):
        c = s_coords(T)
        for pair, x in (("12", c.t2), ("23", c.t1)):
            for f in (0.7, 1.3, 2.5):
                yield None, T, pair, f * x


class TestOneCandidateMove:
    @pytest.mark.parametrize("sheet", [1, -1, None])
    def test_matches_the_two_candidate_move_bit_for_bit(self, sheet):
        moved = 0
        for _, T, pair, target in move_cases():
            try:
                want, want_mv = reference_coordinate_move(T, pair, target, sheet)
            except Unreachable:
                with pytest.raises(Unreachable):
                    triples_module._coordinate_move(T, pair, target, sheet)
                continue
            got, got_mv = triples_module._coordinate_move(T, pair, target, sheet)
            assert got_mv == want_mv
            for a, b in zip(got.points, want.points):
                assert a.rep.tobytes() == b.rep.tobytes() and a.sign == b.sign
            moved += 1
        assert moved >= 100

    def test_the_high_preimage_lies_on_the_pairs_sheet(self):
        # the sheet of each preimage, read from the bent triple's own Gram
        checked = 0
        for scale, T, pair, target in orientation_cases():
            i = triples_module._PAIR_START[pair]
            b = bending(T.points[i], T.points[i + 1])
            fixed = T.p3 if pair == "12" else T.p1
            try:
                ss = triples_module._bend_targets(b, T.p2, fixed, target, 1e-9)
            except Unreachable:
                continue
            if len(ss) < 2:
                continue
            ts = [
                triples_module._invariants(
                    Triple(*triples_module._bend(T.points, pair, s, 1e-9, b))
                )[2]
                for s in ss
            ]
            if scale != 2.0:
                # one preimage per sheet: t = 1 +- the same root; the bent
                # triples at scale 2.0 hold their points only to about 3e-9
                # relative in t
                assert abs(ts[0] + ts[1] - 2.0) <= 1e-10
            high = triples_module._HIGH_SHEET[pair]
            assert np.sign(ts[0] - 1.0) == high
            assert np.sign(ts[1] - 1.0) == -high
            checked += 1
        assert checked >= 180

    @pytest.mark.parametrize("sheet", [1, -1])
    def test_explicit_sheet_near_the_ramification(self, sheet):
        # T's own sheet is roundoff here; the requested one is not
        offsets = [sign * 10.0**-k for k in range(11, 17) for sign in (1, -1)] * 2
        landed = 0
        for T in near_ramification_triples(default_rng(101), offsets):
            c = s_coords(T)
            for move, x in ((vertical_line, c.t2), (horizontal_line, c.t1)):
                for f in (1.3, 2.5):
                    U, _ = move(T, f * x, sheet)
                    assert s_coords(U).sheet == sheet
                    landed += 1
        assert landed == 4 * len(offsets)

    @pytest.mark.parametrize("pair", ["12", "23"])
    def test_builds_only_the_chosen_triple(self, pair, count_calls):
        T = random_strongly_regular_triple(default_rng(71))
        c = s_coords(T)
        target = 2.0 * (c.t2 if pair == "12" else c.t1)
        i = triples_module._PAIR_START[pair]
        b = bending(T.points[i], T.points[i + 1])
        fixed = T.p3 if pair == "12" else T.p1
        assert len(triples_module._bend_targets(b, T.p2, fixed, target, 1e-9)) == 2
        counts = count_calls(triples_module._bend, core.point)
        triples_module._coordinate_move(T, pair, target, +1)
        # one point for the bending's polar point, two for the moved pair
        assert counts["_bend"] == 1
        assert counts["point"] == 3


def reference_bend_onto(A, ca, cb, first, tol):
    """_bend_onto as it was: try the first leg, and on Unreachable double
    the other coordinate, lifting and retrying, until the first leg goes
    through; flip a sheet by stepping out to twice the target and back."""
    second = "12" if first == "23" else "23"
    x1, x2 = triples_module._SWEPT[first], triples_module._SWEPT[second]
    moves = []
    cur = A

    target = getattr(cb, x1)
    if triples_module._off_target(getattr(ca, x1), target):
        try:
            cur, mv = reference_coordinate_move(cur, first, target, None, tol)
            moves.append(mv)
        except Unreachable:
            y = getattr(s_coords(cur, tol), x2)
            done = False
            for _ in range(60):
                y *= 2.0
                lifted, mv_lift = reference_coordinate_move(cur, second, y, None, tol)
                try:
                    lifted, mv = reference_coordinate_move(
                        lifted, first, target, None, tol
                    )
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
    if triples_module._off_target(getattr(cc, x2), target):
        cur, mv = reference_coordinate_move(cur, second, target, want_sheet, tol)
        moves.append(mv)
    elif want_sheet is not None and abs(cc.t - 1.0) > tol and cc.sheet != cb.sheet:
        cur, mv = reference_coordinate_move(cur, second, 2.0 * target, None, tol)
        moves.append(mv)
        cur, mv = reference_coordinate_move(cur, second, target, want_sheet, tol)
        moves.append(mv)
    return moves, cur


def three_move_coords():
    """Coordinates of two real all-negative triples: the direct horizontal
    leg from the first to t1 of the second is out of reach."""
    base = SCoords(t=1.0, t1=0.0, t2=0.0, sigma=(-1, -1, -1), alpha=0.0, beta=2.0)
    return coords_like(base, 5.0, 1.7, sheet=1), coords_like(base, 1.8, 4.5, sheet=1)


def needs_lift(ca, cb):
    """The orders `first` whose first leg from ca is out of reach: the
    relation has no point at cb's swept coordinate and ca's other one."""
    return [
        first
        for first, x1, x2 in (("23", "t1", "t2"), ("12", "t2", "t1"))
        if _sheet_gap(getattr(cb, x1), getattr(ca, x2), ca.alpha, ca.beta) < 0.0
    ]


def lift_cases():
    """(ca, cb, first) whose first leg is out of reach from ca, from
    three_move_coords and from four random pairs on each sign pattern, each
    pair taken in both orders."""
    pairs = [three_move_coords()]
    rng = default_rng(103)
    for pattern in PATTERNS:
        n = 0
        while n < 4:
            ca = random_strongly_regular_coords(rng, sigma=pattern)
            t1 = ca.t1 * 10.0 ** rng.uniform(-2.0, 1.0)
            t2 = ca.t2 * 10.0 ** rng.uniform(-2.0, 1.0)
            if _sheet_gap(t1, t2, ca.alpha, ca.beta) <= 0.0:
                continue
            cb = coords_like(ca, t1, t2, sheet=1 if rng.random() < 0.5 else -1)
            try:
                validate_coords(cb)
            except InadmissibleCoords:
                continue
            if needs_lift(ca, cb) or needs_lift(cb, ca):
                pairs.append((ca, cb))
                n += 1
    for ca, cb in pairs:
        for c, d in ((ca, cb), (cb, ca)):
            for first in needs_lift(c, d):
                yield c, d, first


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
        ca, cb = three_move_coords()
        assert (ca.t1 - 1.0) * (ca.t2 - 1.0) >= beta
        assert (cb.t1 - 1.0) * (cb.t2 - 1.0) >= beta
        assert (cb.t1 - 1.0) * (ca.t2 - 1.0) < beta
        A, B = triple_from_coords(ca), triple_from_coords(cb)
        moves, g = connect_triples(A, B)
        assert [m.pair for m in moves] == ["12", "23", "12"]
        assert_triples_match(g, apply_bend_program(A, moves), B, 1e-8)

    def test_lift_matches_the_search_bit_for_bit(self):
        patterns = set()
        for ca, cb, first in lift_cases():
            A, B = triple_from_coords(ca), triple_from_coords(cb)
            ca, cb = s_coords(A), s_coords(B)
            tol = core.DEFAULT_TOL
            want, want_T = reference_bend_onto(A, ca, cb, first, tol)
            got, got_T = triples_module._bend_onto(A, ca, cb, first, tol)
            assert got == want
            assert len(got) == 3
            for a, b in zip(got_T.points, want_T.points):
                assert a.rep.tobytes() == b.rep.tobytes() and a.sign == b.sign
            patterns.add(ca.sigma)
        assert patterns == set(PATTERNS)

    def test_a_target_no_lift_reaches_stops_after_sixty_lifts(self, count_calls):
        # t1 = 1/2 on the all-negative pattern: _sheet_gap(1/2, y) tends to
        # 1 - 1/(1/2) = -1 however far y is doubled
        A, _ = (triple_from_coords(c) for c in three_move_coords())
        ca = s_coords(A)
        cb = SCoords(ca.t, 0.5, ca.t2, ca.sigma, ca.alpha, ca.beta)
        counts = count_calls(triples_module._coordinate_move)
        with pytest.raises(Unreachable, match="target of pair 23 stayed out of reach"):
            triples_module._bend_onto(A, ca, cb, "23", core.DEFAULT_TOL)
        assert counts["_coordinate_move"] == 0

    def test_one_lift_takes_three_coordinate_moves(self, count_calls):
        A, B = (triple_from_coords(c) for c in three_move_coords())
        counts = count_calls(triples_module._coordinate_move)
        moves, _ = triples_module._bend_onto(
            A, s_coords(A), s_coords(B), "23", core.DEFAULT_TOL
        )
        assert [m.pair for m in moves] == ["12", "23", "12"]
        # the lift, the first leg and the second leg; no attempt that fails
        assert counts["_coordinate_move"] == 3

    def test_sheet_flip_at_equal_coordinates(self):
        # equal (t1, t2), mirrored t: one bend to the other preimage
        for seed in (59, *range(1, 9)):
            rng = default_rng(seed)
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
            assert [m.pair for m in moves] == ["12"]
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

    def test_closure_failure_carries_gap_and_bound(self, monkeypatch):
        # an isometry off by a fixed motion passes the estimated error,
        # which sees only its form residual, and fails the measured gap
        rng = default_rng(53)
        A = random_strongly_regular_triple(rng)
        B = apply_bend_program(A, [Move(pair="12", s=0.4)]).apply(
            random_isometry(rng, 0.6)
        )
        frame_map = triples_module._frame_map
        h = random_isometry(default_rng(0), 0.5).m

        def moved_frame_map(pa, pb):
            return Isometry(frame_map(pa, pb).m @ h)

        monkeypatch.setattr(triples_module, "_frame_map", moved_frame_map)
        with pytest.raises(NotConjugate) as info:
            connect_triples(A, B)
        assert info.value.bound == triples_module.GAP_TOL
        assert info.value.value > info.value.bound

    def test_first_order_failure_is_the_callers(self, monkeypatch):
        rng = default_rng(61)
        A = random_strongly_regular_triple(rng)
        B = apply_bend_program(A, [Move(pair="12", s=0.5)])
        orders = []

        def first_order_fails(A, ca, cb, first, tol):
            orders.append(first)
            raise Unreachable("the first order fails")

        monkeypatch.setattr(triples_module, "_bend_onto", first_order_fails)
        with pytest.raises(Unreachable, match="the first order fails"):
            connect_triples(A, B)
        assert orders == ["23"]

    def test_second_order_failure_keeps_the_first_order(self, monkeypatch):
        rng = default_rng(61)
        A = random_strongly_regular_triple(rng)
        B = apply_bend_program(
            A, [Move(pair="12", s=0.5), Move(pair="23", s=-0.4)]
        ).apply(random_isometry(rng, 0.6))
        bend_onto = triples_module._bend_onto
        orders = []

        def second_order_fails(A, ca, cb, first, tol):
            orders.append(first)
            if first == "12":
                raise Unreachable("the second order fails")
            return bend_onto(A, ca, cb, first, tol)

        monkeypatch.setattr(triples_module, "_bend_onto", second_order_fails)
        # at tol 0 no estimate passes, so the second order is always tried
        moves, g = connect_triples(A, B, tol=0.0)
        assert orders == ["23", "12"]
        assert moves == bend_onto(A, s_coords(A), s_coords(B), "23", 0.0)[0]
        assert_triples_match(g, apply_bend_program(A, moves), B, 1e-8)

    def test_a_looser_tol_keeps_searching_below_the_closure_bound(self):
        # bench connect seed 1, item 1062: bending 23 first estimates a
        # closure error of 3.95e-8, above CLOSURE_TOL, so the other order
        # is needed whether or not `tol` admits 3.95e-8
        A = jsonio.decode_triple({"points": [
            {"rep": [[-1.6009079423870956, 0.007681956808551548],
                     [0.24267884289845015, -0.0009742613655758376],
                     [1.9031182891334504, 0.0]], "sign": -1},
            {"rep": [[-0.29252522002696135, -0.0013162467722794792],
                     [-0.5563628425304471, 0.0011918759783468922],
                     [1.1811493427904427, 0.0]], "sign": -1},
            {"rep": [[1.9802697257150412, 0.0],
                     [0.11400738708688506, 0.0006996573203639386],
                     [1.7130157128143153, 0.006597580278586651]], "sign": 1},
        ]})
        B = jsonio.decode_triple({"points": [
            {"rep": [[-0.5914349444321509, 1.2134146447045782],
                     [-0.37556159305387055, -1.2345985251799745],
                     [2.118360314496268, 0.0]], "sign": -1},
            {"rep": [[-3.707370250537371, 11.721216078350784],
                     [-3.428023424522878, -11.324872952514223],
                     [17.091974506171727, 0.0]], "sign": -1},
            {"rep": [[-0.09712680595054068, -0.4732945217734445],
                     [1.406762902037623, 0.0],
                     [-0.44462538379920985, 1.0073387967340621]], "sign": 1},
        ]})
        for tol in (1e-7, 1e-6):
            moves, g = connect_triples(A, B, tol)
            assert [m.pair for m in moves] == ["12", "23"]
            assert_triples_match(g, apply_bend_program(A, moves), B, 1e-8)

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


    def test_sign_patterns_are_compared_before_anything_is_read(self, count_calls):
        rng = default_rng(68)
        triples = [random_strongly_regular_triple(rng, sigma=sa) for sa in PATTERNS]
        counts = count_calls(triples_module.s_coords, paths.bending)
        for A, sa in zip(triples, PATTERNS):
            for B, sb in zip(triples, PATTERNS):
                if sb == sa:
                    continue
                with pytest.raises(IncompatibleInvariants, match="sign patterns") as info:
                    connect_triples(A, B)
                assert str(sa) in str(info.value) and str(sb) in str(info.value)
        assert not counts


class TestClosureGap:
    @pytest.mark.parametrize("theta", [1e-12, 1e-8, 1e-4])
    def test_reads_the_chord_of_the_angle(self, theta):
        # b is at euclidean angle theta from a; 1 - cos theta reads 0, 0
        # and 5e-9 here, the chord 2 sin(theta / 2) is linear in theta
        a = point([0.0, 0.0, 1.0])
        b = point([0.6 * np.sin(theta), 0.8j * np.sin(theta), np.cos(theta)])
        gap = _closure_gap(Isometry(np.eye(3, dtype=complex)), [a, a], [a, b])
        chord = 2.0 * np.sin(theta / 2.0)
        assert abs(gap - chord) <= 1e-6 * chord

    def test_phase_of_the_representatives_is_aligned(self):
        # a central isometry moves no point, only the phases of the
        # representatives
        T = random_strongly_regular_triple(default_rng(54))
        g = Isometry(np.exp(2j * np.pi / 3) * np.eye(3))
        assert _closure_gap(g, T.points, T.points) <= 1e-15

    def test_orthogonal_representatives_are_sqrt_two_apart(self):
        a, b = point([0.0, 0.0, 1.0]), point([1.0, 0.0, 0.0])
        gap = _closure_gap(Isometry(np.eye(3, dtype=complex)), [a], [b])
        assert gap == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_nan_propagates(self):
        T = random_strongly_regular_triple(default_rng(54))
        g = Isometry(np.full((3, 3), np.nan, dtype=complex))
        assert np.isnan(_closure_gap(g, T.points, T.points))


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
        with pytest.raises(TraceMinusOne) as info:
            decompose_three_reflections(reflection(random_negative_point(rng)))
        assert info.value.value <= 1e-12
        assert info.value.bound == 1e-9

    @pytest.mark.parametrize("b, signs", [(0.3, [1, -1, -1]), (2.0, [-1, -1, -1])])
    def test_trace_on_re_minus_one_tries_every_sign_pattern(self, b, signs):
        # diag(-1, e^{ib}, -e^{-ib}) has trace -1 + 2i sin(b), so beta = 0:
        # one elliptic needs a positive point and the other none
        F = Isometry(m=np.diag([-1.0, np.exp(1j * b), -np.exp(-1j * b)]))
        D = decompose_three_reflections(F)
        assert [p.sign for p in D.points] == signs
        assert np.abs(D.product().m - F.m).max() <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rapidity, cause", [(40.0, InadmissibleCoords), (60.0, NotConjugate)])
    def test_far_boost_is_not_conjugate(self, rapidity, cause):
        # at rapidity 40 the balanced point is found but its standard Gram
        # does not resolve into three points; at 60 (|F| = 5.7e25) twenty
        # doublings of the pairings leave the sheet gap at -22.6, whose
        # square root would be a NaN
        with pytest.raises(NotConjugate) as info:
            decompose_three_reflections(boost(rapidity))
        assert isinstance(info.value.__cause__, cause)
        if rapidity == 60.0:
            assert info.value.__cause__.value == pytest.approx(-22.6, abs=0.05)
            assert info.value.__cause__.bound == 0.25

    def test_elliptic_either_decomposes_or_reports_honestly(self):
        th = np.array([0.4, 0.9, -1.3])
        F = Isometry(m=np.diag(np.exp(1j * th)))
        try:
            D = decompose_three_reflections(F)
        except NotConjugate:
            return
        assert np.abs(D.product().m - F.m).max() <= 1e-8

    def test_model_realization_ignores_the_last_bit_of_t(self):
        # t1 = t2 ties |u_0| = |u_2| in an eigenvector of the model Gram; a
        # tie broken by roundoff rotates the model by a diagonal phase
        rng = default_rng(21)
        n = 0
        while n < 36:
            tr = random_isometry(rng, 1.0).trace
            a, b = tr.imag / 8.0, (tr.real + 1.0) / 4.0
            gap = _sheet_gap(4.0, 4.0, a, b)
            if b <= 1e-9 or gap < 0.25:
                continue
            t = 1.0 + np.sqrt(gap)
            u, w = (
                realize_gram(standard_gram(SCoords(x, 4.0, 4.0, (-1, -1, -1), a, b)))
                for x in (t, np.nextafter(t, 2.0 * t))
            )
            assert np.abs(u - w).max() <= 1e-12
            n += 1

    def test_last_bits_of_t_do_not_move_the_triple(self, monkeypatch):
        rng = default_rng(21)
        n = 0
        while n < 40:
            F = random_isometry(rng, 1.0)
            try:
                D = decompose_three_reflections(F)
            except NotConjugate:
                continue
            with monkeypatch.context() as m:
                m.setattr(
                    triples_module, "_sheet_gap", lambda *c: _sheet_gap(*c) * (1.0 + 4e-16)
                )
                E = decompose_three_reflections(F)
            for p, q in zip(D.points, E.points):
                assert np.abs(p.rep - q.rep).max() <= 1e-10
            n += 1


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
