"""Curvature of the bending fibration: fields, bracket, vertical split,
rectangle holonomy, holonomy dimension."""

import numpy as np
import pytest

from chgeom import holonomy, isometry, jsonio
from chgeom.core import form, self_product
from chgeom.errors import NotRegular, OnRamification, RankInconclusive
from chgeom.holonomy import (
    RANK_ONE_BELOW,
    RANK_TWO_ABOVE,
    _curvature_span_ratio,
    b_commutator,
    b_fields,
    holonomy_dimension,
    holonomy_samples,
    omega_commutator,
    rectangle_holonomy,
    vertical_part,
)
from chgeom.isometry import centralizer_basis, isometry_log
from chgeom.paths import tangent
from chgeom.sampling import (
    default_rng,
    random_strongly_regular_coords,
    random_strongly_regular_triple,
)
from chgeom.triples import (
    SCoords,
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

    def test_ramification_raises(self):
        c = SCoords(t=1.0, t1=4.0, t2=4.0, sigma=(-1, -1, -1), alpha=0.0, beta=9.0)
        with pytest.raises(OnRamification):
            holonomy_dimension(triple_from_coords(c))

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

    def test_undecided_ratio_is_reported(self, monkeypatch):
        T = random_strongly_regular_triple(default_rng(5))
        monkeypatch.setattr(holonomy, "_curvature_span_ratio", lambda T, tol: 1e-8)
        with pytest.raises(RankInconclusive) as info:
            holonomy_dimension(T)
        assert info.value.value == 1e-8
        assert info.value.bound == (RANK_ONE_BELOW, RANK_TWO_ABOVE)


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
            assert _curvature_span_ratio(T) >= 10 * RANK_TWO_ABOVE
        for _ in range(40):
            T = random_strongly_regular_triple(rng, real=True)
            assert _curvature_span_ratio(T) <= 0.1 * RANK_ONE_BELOW

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
