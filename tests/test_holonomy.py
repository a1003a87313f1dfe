"""Curvature of the bending fibration: fields, bracket, vertical split,
rectangle holonomy, holonomy dimension."""

import numpy as np
import pytest

from chgeom import isometry, jsonio
from chgeom.core import DEFAULT_TOL, form, self_product
from chgeom.errors import (
    InadmissibleCoords,
    IsotropicVector,
    LeavesAdmissibleRegion,
    NotRegular,
    OnRamification,
)
from chgeom.holonomy import (
    _basis_coords,
    _canonical_base,
    _omega,
    _walk,
    b_commutator,
    b_fields,
    holonomy_dimension,
    holonomy_samples,
    omega_commutator,
    rectangle_holonomy,
    vertical_part,
)
from chgeom.isometry import _frame_map, centralizer_basis, isometry_log
from chgeom.paths import tangent
from chgeom.sampling import (
    default_rng,
    random_isometry,
    random_point,
    random_strongly_regular_coords,
    random_strongly_regular_triple,
    random_su_element,
)
from chgeom.triples import (
    _SWEPT,
    Move,
    SCoords,
    TripleClass,
    _coordinate_move,
    _reads_real,
    _sheet_gap,
    _standard_cols,
    _standard_triple,
    apply_bend_program,
    classify_triple,
    horizontal_line,
    s_coords,
    tangent_ef_residual,
    triple_from_coords,
    vertical_line,
)

J = np.diag([1.0, 1.0, -1.0])


def form_residual(m):
    return np.abs(m.conj().T @ J @ m - J).max()


# raw-vector versions of the bending fields, degree one in each argument,
# for finite differencing without point canonicalization
def field_b1(v1, v2, v3):
    g11 = self_product(v1)
    g22 = self_product(v2)
    return (
        v1 - g11 * v2 / form(v2, v1),
        g22 * v1 / form(v1, v2) - v2,
        np.zeros(3, dtype=complex),
    )


def field_b2(v1, v2, v3):
    g22 = self_product(v2)
    g33 = self_product(v3)
    return (
        np.zeros(3, dtype=complex),
        v2 - g22 * v3 / form(v3, v2),
        g33 * v2 / form(v2, v3) - v3,
    )


def fd_bracket(vs, fx, fy, eps=1e-6):
    def shift(ws, e):
        return tuple(v + e * w for v, w in zip(vs, ws))

    X = fx(*vs)
    Y = fy(*vs)
    dy = tuple(
        (a - b) / (2 * eps)
        for a, b in zip(fy(*shift(X, eps)), fy(*shift(X, -eps)))
    )
    dx = tuple(
        (a - b) / (2 * eps)
        for a, b in zip(fx(*shift(Y, eps)), fx(*shift(Y, -eps)))
    )
    return tuple(a - b for a, b in zip(dy, dx))


def coords_of(vs):
    s = [self_product(v) for v in vs]
    t1 = abs(form(vs[0], vs[1])) ** 2 / (s[0] * s[1])
    t2 = abs(form(vs[1], vs[2])) ** 2 / (s[1] * s[2])
    return t1, t2


class TestBFields:
    def test_velocities_pair_to_zero_with_base(self):
        rng = default_rng(10)
        for _ in range(5):
            T = random_strongly_regular_triple(rng)
            for field in b_fields(T):
                for p, v in zip(T.points, field):
                    assert abs(form(v, p.rep)) <= 1e-12

    def test_fields_preserve_the_product(self):
        # infinitesimally: the three tangents satisfy the product-derivative
        # identity, so the flow of either field fixes R3 R2 R1
        rng = default_rng(11)
        for _ in range(10):
            T = random_strongly_regular_triple(rng)
            for field in b_fields(T):
                tgs = [tangent(p, v) for p, v in zip(T.points, field)]
                assert tangent_ef_residual(T, *tgs) <= 1e-12

    def test_flow_speeds(self):
        # t2 moves at 2 t2 (t - 1) along b1, t1 at -2 t1 (t - 1) along b2
        rng = default_rng(12)
        eps = 1e-7
        for _ in range(6):
            T = random_strongly_regular_triple(rng)
            c = s_coords(T)
            vs = tuple(p.rep for p in T.points)
            b1, b2 = b_fields(T)
            for field, dt1_ref, dt2_ref in (
                (b1, 0.0, 2.0 * c.t2 * (c.t - 1.0)),
                (b2, -2.0 * c.t1 * (c.t - 1.0), 0.0),
            ):
                plus = coords_of(tuple(v + eps * w for v, w in zip(vs, field)))
                minus = coords_of(tuple(v - eps * w for v, w in zip(vs, field)))
                dt1 = (plus[0] - minus[0]) / (2 * eps)
                dt2 = (plus[1] - minus[1]) / (2 * eps)
                scale = max(1.0, abs(c.t1), abs(c.t2))
                assert dt1 == pytest.approx(dt1_ref, abs=1e-5 * scale)
                assert dt2 == pytest.approx(dt2_ref, abs=1e-5 * scale)

    def test_coordinate_moves_preserve_the_product(self):
        # the finite version: bending a pair commutes with the product of
        # its two reflections, so moves change the triple but not F
        rng = default_rng(13)
        for _ in range(6):
            T = random_strongly_regular_triple(rng)
            c = s_coords(T)
            f_before = T.product().m
            moved, _ = vertical_line(T, c.t2 * 1.7, c.sheet)
            moved, _ = horizontal_line(moved, c.t1 * 1.3, c.sheet)
            f_after = moved.product().m
            assert np.abs(f_after - f_before).max() <= 1e-10 * np.abs(f_before).max()


class TestBracket:
    def test_matches_finite_differences(self):
        rng = default_rng(20)
        for _ in range(8):
            T = random_strongly_regular_triple(rng)
            vs = tuple(p.rep for p in T.points)
            closed = b_commutator(T)
            fd = fd_bracket(vs, field_b1, field_b2)
            for a, b in zip(closed, fd):
                assert np.abs(a - b).max() <= 1e-7

    def test_middle_pairing_is_imaginary(self):
        # <Z2, p2> = 2 i sigma2 alpha / (t1 t2); the other two pair to zero
        rng = default_rng(21)
        for _ in range(6):
            T = random_strongly_regular_triple(rng)
            c = s_coords(T)
            z1, z2, z3 = b_commutator(T)
            assert abs(form(z1, T.p1.rep)) <= 1e-12
            assert abs(form(z3, T.p3.rep)) <= 1e-12
            expected = 2j * T.p2.sign * c.alpha / (c.t1 * c.t2)
            assert form(z2, T.p2.rep) == pytest.approx(expected, abs=1e-11)


class TestVerticalPart:
    def test_recovers_centralizer_flow(self):
        rng = default_rng(30)
        for _ in range(6):
            T = random_strongly_regular_triple(rng)
            y1, y2 = centralizer_basis(T.product())
            Y = 0.8 * y1 - 1.1 * y2
            vels = tuple(Y @ p.rep for p in T.points)
            vp = vertical_part(T, vels)
            assert abs(vp.c1) <= 1e-10
            assert abs(vp.c2) <= 1e-10
            assert vp.residual <= 1e-12
            assert np.abs(vp.lie - Y).max() <= 1e-10

    def test_splits_a_mixture(self):
        rng = default_rng(31)
        for _ in range(6):
            T = random_strongly_regular_triple(rng)
            y1, _ = centralizer_basis(T.product())
            b1, b2 = b_fields(T)
            vels = tuple(
                0.3 * u - 1.2 * v + y1 @ p.rep
                for u, v, p in zip(b1, b2, T.points)
            )
            vp = vertical_part(T, vels)
            assert vp.c1 == pytest.approx(0.3, abs=1e-10)
            assert vp.c2 == pytest.approx(-1.2, abs=1e-10)
            assert vp.residual <= 1e-12
            assert np.abs(vp.lie - y1).max() <= 1e-9

    def test_bare_fields_have_no_vertical_component(self):
        rng = default_rng(32)
        T = random_strongly_regular_triple(rng)
        b1, b2 = b_fields(T)
        vp = vertical_part(T, b1)
        assert (vp.c1, vp.c2) == (pytest.approx(1.0), pytest.approx(0.0, abs=1e-12))
        assert np.abs(vp.lie).max() <= 1e-12
        vp = vertical_part(T, b2)
        assert (vp.c1, vp.c2) == (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0))
        assert np.abs(vp.lie).max() <= 1e-12

    def test_invariant_changing_deformation_leaves_residual(self):
        rng = default_rng(33)
        found = 0.0
        T = random_strongly_regular_triple(rng)
        for _ in range(3):
            vels = []
            for p in T.points:
                w = rng.normal(size=3) + 1j * rng.normal(size=3)
                lam = p.sign * form(w, p.rep)
                vels.append(w - lam * p.rep)
            found = max(found, vertical_part(T, tuple(vels)).residual)
        assert found > 1e-4

    def test_on_ramification(self):
        c = SCoords(t=1.0, t1=4.0, t2=4.0, sigma=(-1, -1, -1), alpha=0.0, beta=9.0)
        T = triple_from_coords(c)
        with pytest.raises(OnRamification):
            vertical_part(T, b_fields(T)[0])


class TestOmegaCommutator:
    def test_matches_vertical_part_of_bracket(self):
        rng = default_rng(40)
        for _ in range(10):
            T = random_strongly_regular_triple(rng)
            om = omega_commutator(T)
            lie = vertical_part(T, b_commutator(T)).lie
            scale = max(1.0, np.abs(om).max())
            assert np.abs(lie @ T.p1.rep - om).max() <= 1e-10 * scale

    def test_real_triples_give_real_curvature_direction(self):
        # alpha = 0 kills the imaginary p1 component; the vector is a real
        # combination of the points for a real-Gram triple
        rng = default_rng(41)
        T = random_strongly_regular_triple(rng, real=True)
        om = omega_commutator(T)
        P = np.column_stack([p.rep for p in T.points])
        coeff = np.linalg.solve(P, om)
        assert np.abs(coeff.imag).max() <= 1e-10

    def test_on_ramification(self):
        c = SCoords(t=1.0, t1=4.0, t2=4.0, sigma=(-1, -1, -1), alpha=0.0, beta=9.0)
        with pytest.raises(OnRamification):
            omega_commutator(triple_from_coords(c))


def near_ramification(dt: float) -> SCoords:
    """All-negative coordinates with t = 1 + dt, beta re-solved from the
    surface relation."""
    c = random_strongly_regular_coords(default_rng(3), sigma=(-1, -1, -1))
    t1t2 = c.t1 * c.t2
    b = 1.0 - c.t1 - c.t2 + t1t2 - t1t2 * dt**2 - c.alpha**2 / t1t2
    return SCoords(t=1.0 + dt, t1=c.t1, t2=c.t2, sigma=c.sigma, alpha=c.alpha, beta=b)


class TestRectangleHolonomy:
    def test_holonomy_centralizes_the_product(self):
        rng = default_rng(50)
        for _ in range(4):
            T = random_strongly_regular_triple(rng)
            c = s_coords(T)
            g, _ = rectangle_holonomy(
                T, 1e-2 * max(1, abs(c.t2)), 1e-2 * max(1, abs(c.t1))
            )
            assert form_residual(g.m) <= 1e-10
            f = T.product().m
            comm = g.m @ f - f @ g.m
            assert np.abs(comm).max() <= 1e-8 * np.abs(f).max()

    def test_log_over_area_converges_to_normalized_curvature(self):
        rng = default_rng(51)
        for _ in range(4):
            T = random_strongly_regular_triple(rng)
            c = s_coords(T)
            lie = vertical_part(T, b_commutator(T)).lie
            target = lie / (4.0 * c.t1 * c.t2 * (c.t - 1.0) ** 2)
            scale = max(1.0, np.abs(target).max())
            errs = []
            for ds in (2e-3, 1e-3):
                g, (d1, d2) = rectangle_holonomy(
                    T, ds * max(1, abs(c.t2)), ds * max(1, abs(c.t1))
                )
                om_hat = isometry_log(g) / (d1 * d2)
                errs.append(np.abs(om_hat - target).max())
            assert errs[0] <= 5e-2 * scale
            assert errs[1] <= 0.75 * errs[0]

    def test_reports_used_sides(self):
        rng = default_rng(52)
        T = random_strongly_regular_triple(rng)
        c = s_coords(T)
        ds1 = 1e-3 * max(1, abs(c.t2))
        ds2 = 1e-3 * max(1, abs(c.t1))
        _, used = rectangle_holonomy(T, ds1, ds2)
        assert used == (ds1, ds2)

    def test_on_ramification(self):
        c = SCoords(t=1.0, t1=4.0, t2=4.0, sigma=(-1, -1, -1), alpha=0.0, beta=9.0)
        with pytest.raises(OnRamification):
            rectangle_holonomy(triple_from_coords(c), 1e-3, 1e-3)

    @pytest.mark.parametrize("dt", [0.1, -0.1])
    def test_unreachable_sides_are_halved(self, dt):
        # shrinking both coordinates by 1% this near t = 1 passes below the
        # profile minimum; half the sides fit
        c = near_ramification(dt)
        ds1, ds2 = -1e-2 * c.t2, -1e-2 * c.t1
        g, used = rectangle_holonomy(triple_from_coords(c), ds1, ds2)
        assert used == (ds1 / 2, ds2 / 2)
        assert form_residual(g.m) <= 1e-10

    @pytest.mark.parametrize("dt", [0.1, -0.1])
    def test_a_rectangle_that_must_halve_bends_four_times(self, dt, count_calls):
        # the surface relation rejects the full sides before any bend, so
        # the halved rectangle's four legs are the only moves
        c = near_ramification(dt)
        T = triple_from_coords(c)
        ds1, ds2 = -1e-2 * c.t2, -1e-2 * c.t1
        counts = count_calls(_coordinate_move)
        _, used = rectangle_holonomy(T, ds1, ds2)
        assert used == (ds1 / 2, ds2 / 2)
        assert counts["_coordinate_move"] == 4

    @pytest.mark.parametrize("dt", [1e-2, -1e-2])
    def test_rectangle_too_close_to_ramification_raises(self, dt):
        c = near_ramification(dt)
        with pytest.raises(LeavesAdmissibleRegion):
            rectangle_holonomy(triple_from_coords(c), -1e-2 * c.t2, -1e-2 * c.t1)

    def test_a_side_past_a_pairs_sign_halves(self):
        # t1 = -1.33 on the pattern (1, -1, -1): the corners at t1 + 2 and
        # t1 + 1 have the wrong sign, t1 + 1/2 fits
        T = random_strongly_regular_triple(default_rng(1))
        assert T.p1.sign == 1 and -2.0 < s_coords(T).t1 < -1.0
        g, used = rectangle_holonomy(T, 1.0, 2.0)
        assert used == (0.25, 0.5)
        assert form_residual(g.m) <= 1e-10

    def test_sides_past_the_region_halve_or_leave_it(self):
        # each side takes its coordinate past 0 (a pair of mixed signs) or
        # past 1 (a pair of equal signs), by a factor of 1 to 1000: no leg
        # may raise Unreachable, and both outcomes occur on every pattern
        rng = default_rng(29)

        def side(t, ss):
            return ((0.0 if ss < 0 else 1.0) - t) * 10 ** rng.uniform(0.0, 3.0)

        for sigma in ((-1, -1, -1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
            s1, s2, s3 = sigma
            outcomes = set()
            for _ in range(8):
                c = random_strongly_regular_coords(rng, sigma=sigma)
                ds1, ds2 = side(c.t2, s2 * s3), side(c.t1, s1 * s2)
                try:
                    g, (d1, d2) = rectangle_holonomy(triple_from_coords(c), ds1, ds2)
                except LeavesAdmissibleRegion:
                    outcomes.add("leaves")
                    continue
                outcomes.add("fits")
                assert d1 / ds1 == d2 / ds2 <= 0.5
                assert form_residual(g.m) <= 1e-10
            assert outcomes == {"fits", "leaves"}, sigma


class TestHolonomyDimension:
    def test_generic_triple_has_dimension_two(self):
        T = random_strongly_regular_triple(default_rng(5))
        assert holonomy_dimension(T, rng=default_rng(1)) == 2

    def test_real_triple_has_dimension_one(self):
        rng = default_rng(5)
        random_strongly_regular_triple(rng)
        T = random_strongly_regular_triple(rng, real=True)
        assert holonomy_dimension(T, rng=default_rng(2)) == 1

    def test_trivial_loops_have_dimension_zero(self):
        T = random_strongly_regular_triple(default_rng(5))
        assert holonomy_dimension(T, ds=0.0, rng=default_rng(3)) == 0

    def test_samples_shape_and_spread(self):
        T = random_strongly_regular_triple(default_rng(5))
        rows = holonomy_samples(T, 6, rng=default_rng(4))
        assert rows.shape == (6, 2)
        sv = np.linalg.svd(rows, compute_uv=False)
        assert sv[1] > 1e-3 * sv[0]

    @pytest.mark.parametrize(
        "alpha, beta, rank",
        [(0.0, 9.0, 1), (0.5, 9.0 - 0.25 / 16.0, 2)],
        ids=["real", "generic"],
    )
    def test_rank_is_read_on_the_ramification(self, alpha, beta, rank):
        # the verdict pins no sheet: at t = 1 the canonical product is
        # still regular, while the loops, which walk a sheet, refuse
        c = SCoords(t=1.0, t1=4.0, t2=4.0, sigma=(-1, -1, -1), alpha=alpha, beta=beta)
        T = triple_from_coords(c)
        assert abs(s_coords(T).t - 1.0) <= 1e-12
        assert holonomy_dimension(T) == rank
        with pytest.raises(OnRamification) as info:
            holonomy_samples(T, 4, rng=default_rng(6))
        assert info.value.bound == 1e-8
        assert str(info.value).startswith("holonomy is read on a pinned sheet")

    def test_coordinates_are_read_at_the_callers_tolerance(self):
        # beta = 5e-10 reads as zero at the default tolerance, so the
        # triple is only regular there; at tol = 1e-12 it is strongly
        # regular, and every holonomy reader must see it so
        t1 = t2 = 4.0
        alpha, beta = 0.5, 5e-10
        t = 1.0 + np.sqrt(_sheet_gap(t1, t2, alpha, beta))
        c = SCoords(t=t, t1=t1, t2=t2, sigma=(-1, -1, -1), alpha=alpha, beta=beta)
        T = triple_from_coords(c, 1e-12)
        assert s_coords(T, 1e-12).beta == pytest.approx(beta, rel=1e-3)
        assert holonomy_dimension(T, tol=1e-12) == 2
        g, used = rectangle_holonomy(T, 1e-3, 1e-3, 1e-12)
        assert used == (1e-3, 1e-3)
        assert form_residual(g.m) <= 1e-10
        rows = holonomy_samples(T, 2, rng=default_rng(1), tol=1e-12)
        assert rows.shape == (2, 2) and np.isfinite(rows).all()

    def test_samples_at_ramification_raise(self):
        c = SCoords(t=1.0, t1=4.0, t2=4.0, sigma=(-1, -1, -1), alpha=0.0, beta=9.0)
        with pytest.raises(OnRamification):
            holonomy_samples(triple_from_coords(c), 4, rng=default_rng(6))

    def test_non_regular_product_raises(self, monkeypatch):
        T = random_strongly_regular_triple(default_rng(5))
        basis = centralizer_basis(T.product())
        monkeypatch.setattr(isometry, "_centralizer", lambda F: basis + basis)
        with pytest.raises(NotRegular):
            holonomy_dimension(T)


# A generic triple on which sampling eight loops (seed below) left the rank
# undecided after three rounds, sv1/sv0 = 6.4e-4 in the last one.
GENERIC_UNDECIDED_BY_LOOPS = {
    "points": [
        {
            "rep": [
                [-1.378798763583889, 0.005651948862070504],
                [0.5340872300111483, -0.004949983997449136],
                [1.7850466791064477, 0.0],
            ],
            "sign": -1,
        },
        {
            "rep": [
                [0.1427498694343847, 0.008998472623711156],
                [1.4725144280847948, 0.0],
                [-1.0902997051815657, 0.0019471856549017892],
            ],
            "sign": 1,
        },
        {
            "rep": [
                [1.4531614871526306, -1.0403716726440435e-18],
                [0.3621246170812613, 0.006498921660875095],
                [1.8007928204051262, 0.0],
            ],
            "sign": -1,
        },
    ]
}
GENERIC_UNDECIDED_LOOP_SEED = 2684871745958651372


class TestCurvatureSpan:
    def test_decides_where_loops_did_not(self):
        T = jsonio.decode_triple(GENERIC_UNDECIDED_BY_LOOPS)
        rng = default_rng(GENERIC_UNDECIDED_LOOP_SEED)
        assert holonomy_dimension(T, 8, ds=1e-2, rng=rng) == 2

    def test_ratio_is_far_outside_the_band(self):
        rng = default_rng(212)
        for _ in range(100):
            T = random_strongly_regular_triple(rng)
            assert curvature_span_ratio(T) >= 1e-5
        for _ in range(40):
            T = random_strongly_regular_triple(rng, real=True)
            assert curvature_span_ratio(T) <= 1e-11

    def test_matches_loop_rank(self):
        rng = default_rng(210)
        draws = [random_strongly_regular_triple(rng) for _ in range(20)]
        draws += [
            triple_from_coords(random_strongly_regular_coords(rng, real=True))
            for _ in range(20)
        ]
        for T in draws:
            sv = np.linalg.svd(
                holonomy_samples(T, 8, ds=1e-2, rng=default_rng(2)), compute_uv=False
            )
            # the loop logs' roundoff floor sits near 1e-16 of the largest
            loop_rank = int(np.sum(sv > 1e-8 * sv[0]))
            assert holonomy_dimension(T) == loop_rank

    def test_moved_triples_keep_their_rank(self):
        # an isometry changes neither the rank nor the class.  Up to scale
        # 1.5 the ratio stays at most 1e-11 on real draws and at least 1e-5
        # on generic ones; at scale 2 real draw 187 reads 7e-11 natively
        # and 4e-10 on numpy's baseline dispatch, the rounding of its alpha
        for scale in (1.0, 1.5, 2.0, 3.0):
            rng = default_rng(99)
            refused = 0
            for i in range(400):
                real = i % 4 == 3
                T = random_strongly_regular_triple(rng, real=real)
                g = random_isometry(rng, scale)
                try:
                    T = T.apply(g)
                except IsotropicVector:
                    # a far-out point can read isotropic at scale 3
                    refused += 1
                    continue
                assert holonomy_dimension(T) == (1 if real else 2)
                want = TripleClass.REAL_STRONGLY_REGULAR if real else TripleClass.STRONGLY_REGULAR
                assert classify_triple(T) is want
                if scale >= 2.0:
                    continue
                if real:
                    assert curvature_span_ratio(T) <= 1e-11
                else:
                    assert curvature_span_ratio(T) >= 1e-5
            assert refused == 0 or scale == 3.0

    def test_near_real_triples_follow_their_verdict(self, count_calls):
        # alpha set near zero on generic coordinates, t solved again on the
        # draw's sheet: the rank is the reality verdict and walks nowhere,
        # while the curvature span ratio, the evidence, is K |alpha| with K
        # in [4.1e-3, 0.70] on these 40 draws (3.4e-3 to 2.0 on 300)
        rng = default_rng(5)
        draws = [random_strongly_regular_coords(rng) for _ in range(40)]
        counts = count_calls(_coordinate_move)
        for c in draws:
            negative = all(s < 0 for s in c.sigma)
            alphas = [10.0**e for e in range(-9, -2)]
            if negative:
                alphas.insert(0, 0.0)
            for al in alphas:
                t = 1.0 + c.sheet * np.sqrt(_sheet_gap(c.t1, c.t2, al, c.beta))
                d = SCoords(t=t, t1=c.t1, t2=c.t2, sigma=c.sigma, alpha=al, beta=c.beta)
                try:
                    T = triple_from_coords(d)
                except InadmissibleCoords:
                    # real with a positive point
                    assert _reads_real(al, 1.0, DEFAULT_TOL) and not negative
                    continue
                cls = classify_triple(T)
                moves = counts["_coordinate_move"]
                dim = holonomy_dimension(T)
                assert counts["_coordinate_move"] == moves
                assert dim == (1 if cls is TripleClass.REAL_STRONGLY_REGULAR else 2)
                assert (dim == 1) == (al <= DEFAULT_TOL)
                ratio = curvature_span_ratio(T)
                if al == 0.0:
                    assert ratio <= 1e-13
                elif al <= 1e-6:
                    assert 1e-3 <= ratio / al <= 4.0


#: The curvature's sample points: sheet-pinned moves from T, each scaling
#: the tracked coordinate of the current triple by the factor.
SPAN_MOVES = (("12", 1.3), ("23", 1.45), ("12", 1.6), ("23", 1.35))


def curvature_span_ratio(T, tol=DEFAULT_TOL):
    """sv1/sv0 of the normalised curvature values at the canonical triple
    with T's coordinates and four moves away, in centralizer coordinates of
    the product: the evidence for holonomy_dimension's verdict, 1e-16 on
    the real locus and |alpha| times a factor K off it.

    A curvature value Y in C(F) is written through its action Y p1 = omega
    on the first point: the five values are solved against the basis
    applied to p1 in one stacked real least-squares solve.
    """
    c, cur, basis = _canonical_base(T, tol)
    at = [(cur, c)]
    for pair, factor in SPAN_MOVES:
        at.append(_walk(*at[-1], pair, factor, c.sheet, tol))
    p1 = np.array([P.p1.rep for P, _ in at])[:, None, :, None]
    omega = np.array([_omega(P, cc) for P, cc in at])[..., None]
    rows = _basis_coords(np.array(basis) @ p1, omega)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    sv = np.linalg.svd(rows, compute_uv=False)
    return float(sv[1] / sv[0])


def reference_span_ratio(T):
    """curvature_span_ratio with each curvature value built the long way:
    vertical_part of the bracket, written in the centralizer basis by an
    18x2 least-squares solve."""
    c = s_coords(T)
    cur = _standard_triple(c)
    basis = centralizer_basis(cur.product())
    rows = [_basis_coords(basis, vertical_part(cur, b_commutator(cur)).lie)]
    for pair, factor in SPAN_MOVES:
        target = getattr(s_coords(cur), _SWEPT[pair]) * factor
        cur, _ = _coordinate_move(cur, pair, target, c.sheet)
        rows.append(_basis_coords(basis, vertical_part(cur, b_commutator(cur)).lie))
    rows = np.array(rows)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    sv = np.linalg.svd(rows, compute_uv=False)
    return float(sv[1] / sv[0])


def test_span_ratio_matches_vertical_part_reference():
    rng = default_rng(220)
    for _ in range(20):
        T = random_strongly_regular_triple(rng)
        want = reference_span_ratio(T)
        assert curvature_span_ratio(T) == pytest.approx(want, rel=1e-8)


def lstsq_coords(basis, w):
    """Coordinates of w in basis by numpy's least squares, one item at a time."""
    cols = np.column_stack(
        [np.concatenate([y.real.ravel(), y.imag.ravel()]) for y in basis]
    )
    rhs = np.concatenate([w.real.ravel(), w.imag.ravel()])
    return np.linalg.lstsq(cols, rhs, rcond=None)[0]


class TestBasisCoords:
    """The stacked normal-equations solve against per-item lstsq, on
    centralizer bases of isometries up to scale 2 and right sides off their
    span."""

    def draws(self, seed):
        rng = default_rng(seed)
        for scale in (0.5, 1.0, 2.0):
            for _ in range(10):
                F = random_isometry(rng, scale)
                yield rng, np.array(centralizer_basis(F))

    def test_stacked_vectors(self):
        for rng, basis in self.draws(240):
            p = np.array([random_point(rng).rep for _ in range(5)])
            cols = basis @ p[:, None, :, None]
            w = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
            got = _basis_coords(cols, w[..., None])
            assert got.shape == (5, 2)
            for k in range(5):
                want = lstsq_coords(cols[k], w[k])
                assert np.linalg.norm(got[k] - want) <= 1e-12 * np.linalg.norm(want)

    def test_algebra_elements(self):
        for rng, basis in self.draws(241):
            w = np.tensordot(rng.standard_normal(2), basis, 1)
            w = w + 1e-3 * random_su_element(rng)
            got = _basis_coords(list(basis), w)
            want = lstsq_coords(basis, w)
            assert got.shape == (2,)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            stacked = _basis_coords(basis, np.array([w, 2.0 * w]))
            assert np.linalg.norm(stacked - [got, 2.0 * got]) <= 1e-12 * np.linalg.norm(want)


def walked_back_samples(T, n_samples, ds, rng):
    """holonomy_samples with each lasso closed the long way, at the same
    canonical triple and on the same draws: walk out, go round the
    rectangle, replay the negated outbound moves in reverse and map the
    frame reached back onto the base."""
    base = _standard_triple(s_coords(T))
    basis = centralizer_basis(base.product())
    rows = []
    for _ in range(n_samples):
        cur, out = base, []
        for _ in range(int(rng.integers(0, 4))):
            pair = "12" if rng.random() < 0.5 else "23"
            cc = s_coords(cur)
            target = getattr(cc, _SWEPT[pair]) * rng.uniform(1.2, 1.8)
            cur, mv = _coordinate_move(cur, pair, target, cc.sheet)
            out.append(mv)
        cc = s_coords(cur)
        ds1 = ds * rng.uniform(0.5, 1.5) * max(1.0, abs(cc.t2))
        ds2 = ds * rng.uniform(0.5, 1.5) * max(1.0, abs(cc.t1))
        legs = (("12", cc.t2 + ds1), ("23", cc.t1 + ds2), ("12", cc.t2), ("23", cc.t1))
        for pair, target in legs:
            cur, _ = _coordinate_move(cur, pair, target, cc.sheet)
        cur = apply_bend_program(cur, [Move(mv.pair, -mv.s) for mv in reversed(out)])
        g = _frame_map(_standard_cols(cur), _standard_cols(base))
        rows.append(_basis_coords(basis, isometry_log(g)))
    return np.array(rows)


class TestLoopSamples:
    def test_lasso_needs_no_walk_back(self):
        # bendings are natural under isometries, so the rectangle's
        # holonomy at the far end is the whole lasso's
        rng = default_rng(230)
        draws = [random_strongly_regular_triple(rng) for _ in range(20)]
        draws += [random_strongly_regular_triple(rng, real=True) for _ in range(20)]
        for k, T in enumerate(draws):
            rows = holonomy_samples(T, 4, rng=default_rng(k))
            want = walked_back_samples(T, 4, 1e-2, default_rng(k))
            scale = np.linalg.norm(want, axis=1).max()
            assert np.abs(rows - want).max() <= 1e-8 * scale

    def test_moved_triples_keep_their_samples(self):
        # the loops run at the canonical triple, so an isometry changes the
        # rows by roundoff only; at T's own position far-moved triples
        # raised NotRegular
        for scale in (1.0, 2.0):
            rng = default_rng(99)
            for i in range(100):
                T = random_strongly_regular_triple(rng, real=i % 4 == 3)
                M = T.apply(random_isometry(rng, scale))
                sv = np.linalg.svd(
                    holonomy_samples(T, 4, rng=default_rng(0)), compute_uv=False
                )
                sv_moved = np.linalg.svd(
                    holonomy_samples(M, 4, rng=default_rng(0)), compute_uv=False
                )
                assert np.abs(sv_moved - sv).max() <= 1e-6 * sv[0]
