"""Pentagons: verification, building, the moduli chart, reality, moves,
and connection."""

from itertools import product

import numpy as np
import pytest

from chgeom import jsonio, paths
from chgeom import pentagons as pentagons_module
from chgeom import triples as triples_module
from chgeom.core import LineType, line_type, point, projectively_equal, tance
from chgeom.errors import (
    DifferentDelta,
    GeometryError,
    IncompatibleInvariants,
    InadmissibleModuli,
    IsotropicVector,
    NotAPentagon,
    NotConjugate,
)
from chgeom.isometry import CubeRoot, _reflection_product, reflection, split_two_reflections
from chgeom.pentagons import (
    Pentagon,
    apply_pentagon_moves,
    build_pentagon,
    connect_pentagons,
    is_real_pentagon,
    pentagon,
    pentagon_from_moduli,
    pentagon_moduli,
    verify_pentagon,
)
from chgeom.sampling import (
    default_rng,
    random_isometry,
    random_negative_point,
    random_point,
)
from chgeom.triples import (
    Move,
    SCoords,
    TripleClass,
    _closure_gap,
    classify_triple,
    s_coords,
    triple_from_coords,
)

J = np.diag([1.0, 1.0, -1.0])


def form_residual(m):
    return np.abs(m.conj().T @ J @ m - J).max()


def relation_residual(P):
    return float(np.abs(P.product().m - P.delta.matrix()).max())


def random_moduli(rng):
    while True:
        m = (
            -rng.uniform(0.3, 4.0),
            rng.uniform(1.3, 6.0),
            rng.uniform(1.2, 5.0),
        )
        try:
            pentagon_from_moduli(m, CubeRoot(1))
        except InadmissibleModuli:
            continue
        return m


def moved_pair():
    """A pentagon pair joined by the moves 34, 23, 12 and 45, B moved."""
    A = pentagon_from_moduli((-2.0, 4.0, 2.0), CubeRoot(1))
    B = pentagon_from_moduli((-1.5, 3.0, 2.5), CubeRoot(1), s5=0.3)
    return A, B.apply(random_isometry(default_rng(5), 0.6))


def built_pentagon(rng, k, s4, s5):
    """build_pentagon with central value omega^k on random points of signs
    s4 and s5, drawn again on any GeometryError."""
    while True:
        try:
            p4, p5 = random_point(rng, s4), random_point(rng, s5)
            return build_pentagon(CubeRoot(k), p4, p5)
        except GeometryError:
            continue


def real_pentagon(s5=0.4, t4=2.0, t1=4.0, t2=4.0):
    # the central value 1 admits all-negative real-Gram triples; splitting
    # the (real) product keeps every Gram entry real
    beta = t4
    rhs = 1.0 - (t1 + t2 + beta - 1.0) / (t1 * t2)
    c = SCoords(
        t=1.0 + np.sqrt(rhs), t1=t1, t2=t2, sigma=(-1, -1, -1), alpha=0.0, beta=beta
    )
    T = triple_from_coords(c)
    x1, x2 = split_two_reflections(T.product(), s5)
    return pentagon(T.p1, T.p2, T.p3, x2, x1)


def test_reflection_products_are_the_written_out_chains():
    # the triple, pentagon and two-point products multiply left to right
    # from the reflection in the last point, bit for bit, though their
    # reflections are built in one stack: on chart pentagons, on the same
    # pentagons moved by random_isometry at scales 1 to 3, and on the split
    # pair whose product split_two_reflections checks
    def check(P):
        r = [reflection(p).m for p in P.points]
        assert P.triple().product().m.tobytes() == (r[2] @ r[1] @ r[0]).tobytes()
        five = r[4] @ r[3] @ r[2] @ r[1] @ r[0]
        assert P.product().m.tobytes() == five.tobytes()
        x1, x2 = P.p5, P.p4
        pair = _reflection_product((x1, x2))
        assert pair.tobytes() == (reflection(x2).m @ reflection(x1).m).tobytes()

    rng = default_rng(59)
    for _ in range(5):
        check(pentagon_from_moduli(random_moduli(rng), CubeRoot(1), s5=0.2))
    for scale in (1.0, 2.0, 3.0):
        moved = 0
        for i in range(20):
            P = pentagon_from_moduli(random_moduli(rng), CubeRoot(1 + i % 2), s5=0.2)
            try:
                P = P.apply(random_isometry(rng, scale))
            except IsotropicVector:
                continue
            check(P)
            moved += 1
        assert moved >= 15


class TestVerifyAndBuild:
    def test_moduli_pentagons_verify(self):
        for k in (1, 2):
            P = pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(k), s5=0.3)
            assert verify_pentagon(P.points).k == k
            assert relation_residual(P) <= 1e-9

    def test_five_random_points_are_not_a_pentagon(self):
        rng = default_rng(60)
        pts = [random_negative_point(rng) for _ in range(5)]
        with pytest.raises(NotAPentagon) as info:
            verify_pentagon(pts)
        # the off-center residual and its scaled bound
        assert info.value.value > info.value.bound >= 1e-8

    def test_far_pentagon_verifies(self):
        # a valid pentagon moved far from the origin: its product misses
        # delta I by ~2e-8, roundoff grown with the squared representative
        # norms (up to ~3060), not a broken relation
        pts = [
            point([-3.9775353174279346 - 1.6031944110727985j,
                   10.144651150215996 - 1.7889201316594903j,
                   11.113289419344614 + 0j]),
            point([-2.7605650544909976 - 1.157037779222456j,
                   4.722165673170484 - 0.829494001478384j,
                   5.739892401951729 + 0j]),
            point([-8.43074275901438 - 2.9063214419542973j,
                   10.914386525160577 - 1.425071148877404j,
                   14.201365736879191 + 0j]),
            point([-22.217592602144492 - 6.761446317878561j,
                   31.277874595163702 - 3.42471802903754j,
                   39.11997840124175 + 0j]),
            point([-6.762889594204351 - 2.176041567111665j,
                   9.850060623635317 - 1.1640617048595223j,
                   12.241346596972358 + 0j]),
        ]
        assert [p.sign for p in pts] == [1, -1, -1, -1, -1]
        assert verify_pentagon(pts).k == 1
        # the scaled bound still rejects the same points with one moved
        pts[3] = point(pts[3].rep + np.array([0.0, 0.0, 1.0]))
        with pytest.raises(NotAPentagon):
            verify_pentagon(pts)

    def test_build_completes_a_split_pair(self):
        rng = default_rng(61)
        for k in (0, 1, 2):
            for _ in range(4):
                base = pentagon_from_moduli(random_moduli(rng), CubeRoot(1))
                P = build_pentagon(CubeRoot(k), base.p4, base.p5)
                assert P.delta.k == k
                assert relation_residual(P) <= 1e-8
                assert P.p4 is base.p4 and P.p5 is base.p5

    def test_built_pentagons_decode_at_the_default_tolerance(self):
        # build_pentagon checks its result at the relation tolerance the
        # decoder defaults to, so what it builds reads back without flags
        rng = default_rng(63)
        built = 0
        for i in range(90):
            s4, s5 = ((1, 1), (-1, -1), (1, -1))[i % 3]
            p4, p5 = random_point(rng, s4), random_point(rng, s5)
            try:
                P = build_pentagon(CubeRoot((i // 3) % 3), p4, p5)
            except NotConjugate:
                continue
            got = jsonio.decode_pentagon(jsonio.encode(P))
            assert got.delta == P.delta
            built += 1
        assert built >= 80

    def test_build_of_central_value_one_in_all_negative_chart(self):
        rng = default_rng(62)
        base = pentagon_from_moduli(random_moduli(rng), CubeRoot(2))
        P = build_pentagon(CubeRoot(0), base.p4, base.p5)
        assert s_coords(P.triple()).sigma == (-1, -1, -1)


class TestFromModuli:
    def test_frozen_invariants_at_t4_two(self):
        for k, sign in ((1, 1.0), (2, -1.0)):
            P = pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(k))
            c = s_coords(P.triple())
            assert c.alpha == pytest.approx(sign * 7.0 * np.sqrt(3.0) / 16.0, abs=1e-9)
            assert c.beta == pytest.approx(-5.0 / 8.0, abs=1e-9)
            assert c.sigma == (1, -1, -1)
            assert c.t >= 1.0

    def test_moduli_round_trip(self):
        rng = default_rng(63)
        for _ in range(6):
            m = random_moduli(rng)
            P = pentagon_from_moduli(m, CubeRoot(2), s5=rng.uniform(-1, 1))
            got = pentagon_moduli(P)
            assert got == pytest.approx(m, abs=1e-9)
            assert relation_residual(P) <= 1e-9

    def test_trace_identity(self):
        P = pentagon_from_moduli((-1.5, 2.5, 3.0), CubeRoot(1))
        tr = P.triple().product().trace
        assert tr == pytest.approx(CubeRoot(1).value * 11.0, abs=1e-9)

    def test_slide_moves_the_pair_along_the_axis(self):
        A = pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(1), s5=0.0)
        B = pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(1), s5=0.7)
        assert not projectively_equal(A.p4, B.p4, tol=1e-6)
        assert tance(A.p4, A.p5) == pytest.approx(tance(B.p4, B.p5), abs=1e-10)
        for p, q in zip(A.points[:3], B.points[:3]):
            assert projectively_equal(p, q, tol=1e-9)

    def test_negative_sheet(self):
        m = (-2.0, 3.0, 2.0)
        A = pentagon_from_moduli(m, CubeRoot(1), sheet=1)
        B = pentagon_from_moduli(m, CubeRoot(1), sheet=-1)
        ca, cb = s_coords(A.triple()), s_coords(B.triple())
        assert ca.t > 1.0 > cb.t
        assert ca.t - 1.0 == pytest.approx(1.0 - cb.t, abs=1e-12)
        assert pentagon_moduli(B) == pytest.approx(m, abs=1e-9)
        assert relation_residual(B) <= 1e-9
        with pytest.raises(ValueError):
            pentagon_from_moduli(m, CubeRoot(1), sheet=2)

    def test_inadmissible_moduli(self):
        with pytest.raises(InadmissibleModuli):
            pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(0))
        with pytest.raises(InadmissibleModuli):
            pentagon_from_moduli((2.0, 3.0, 2.0), CubeRoot(1))
        with pytest.raises(InadmissibleModuli):
            pentagon_from_moduli((-2.0, 3.0, 0.8), CubeRoot(1))
        # surface has no real point over these: the alpha term dominates
        with pytest.raises(InadmissibleModuli):
            pentagon_from_moduli((-1.0, 1.5, 10.0), CubeRoot(1))


class TestRealPentagon:
    def test_real_chart_is_real(self):
        P = real_pentagon()
        assert P.delta.k == 0
        assert relation_residual(P) <= 1e-10
        assert is_real_pentagon(P)

    def test_reality_is_a_congruence_invariant(self):
        P = real_pentagon()
        g = random_isometry(default_rng(64))
        assert is_real_pentagon(P.apply(g))

    def test_moduli_chart_pentagons_are_not_real(self):
        # their triples carry alpha != 0, which no real Gram allows
        P = pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(1))
        assert not is_real_pentagon(P)

    def test_real_survives_moves(self):
        P = real_pentagon()
        moved = apply_pentagon_moves(
            P, [Move(pair="45", s=0.6), Move(pair="34", s=-0.3)]
        )
        assert is_real_pentagon(moved)
        assert relation_residual(moved) <= 1e-9

    def test_moved_real_pentagons_have_real_triples(self):
        # test_11's real chart moved far: alpha of the moved triple, and the
        # imaginary parts of the gauged Gram, are rounding of the
        # representatives, which classify_triple and is_real_pentagon both
        # allow for by 32 eps kappa.  Without that term is_real_pentagon
        # called draw 7 not real on numpy's baseline dispatch (imaginary
        # part 1.28 times 1e-8 max(1, max|G|)).
        rng = default_rng(211)
        moved = 0
        for _ in range(100):
            t1 = float(rng.uniform(2.5, 6.0))
            t2 = float(rng.uniform(2.5, 6.0))
            t4 = float(rng.uniform(1.2, min(5.0, (t1 - 1.0) * (t2 - 1.0) - 0.2)))
            P = real_pentagon(float(rng.uniform(-1.0, 1.0)), t4, t1, t2)
            g = random_isometry(rng, 3.0)
            try:
                P = P.apply(g)
            except IsotropicVector:
                continue
            moved += 1
            assert classify_triple(P.triple()) is TripleClass.REAL_STRONGLY_REGULAR
            assert is_real_pentagon(P)
        assert moved >= 90


class TestMoves:
    def test_moves_preserve_the_relation(self):
        rng = default_rng(65)
        P = pentagon_from_moduli(random_moduli(rng), CubeRoot(1), s5=0.2)
        prog = [
            Move(pair=pair, s=float(rng.uniform(-0.8, 0.8)))
            for pair in ("12", "23", "34", "45", "34", "12")
        ]
        moved = apply_pentagon_moves(P, prog)
        assert verify_pentagon(moved.points).k == P.delta.k
        assert relation_residual(moved) <= 1e-9

    def test_unknown_pair_is_rejected(self):
        P = pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(1))
        with pytest.raises(ValueError):
            apply_pentagon_moves(P, [Move(pair="51", s=0.1)])

    def test_replay_bends_a_spherical_45_pair(self):
        # replay bends any pair a bending exists for: two positive points
        # can span a spherical line, which no coordinate move solves on
        rng = default_rng(5)
        for _ in range(50):
            p4, p5 = random_point(rng, 1), random_point(rng, 1)
            try:
                P = build_pentagon(CubeRoot(int(rng.integers(0, 3))), p4, p5)
            except NotConjugate:
                continue
            if line_type(P.p4, P.p5) is LineType.SPHERICAL:
                break
        else:
            pytest.fail("no spherical 45 pair in 50 draws")
        moved = apply_pentagon_moves(
            P, [Move(pair="45", s=0.7), Move(pair="34", s=-0.4)]
        )
        assert relation_residual(moved) <= 1e-9


def reference_move_34(P, t4_target, tol=1e-9):
    """_move_34 as it was: bend (p3, p4) to the preimage of least |s|."""
    b = paths.bending(P.p3, P.p4, tol)
    s = min(paths._bend_targets(b, P.p4, P.p5, t4_target, tol), key=abs)
    moved = Pentagon(*triples_module._bend(P.points, "34", s, tol, b), delta=P.delta)
    return moved, Move(pair="34", s=float(s))


def move_34_cases():
    """(pentagon, t4 target): chart pentagons unmoved and moved by random
    isometries at scales 1 and 2, and build_pentagon pentagons with two
    positive points p4, p5, with targets below and above their t4."""
    rng = default_rng(81)
    for scale in (None, 1.0, 2.0):
        for _ in range(8):
            m, delta = random_moduli(rng), CubeRoot(int(rng.integers(1, 3)))
            P = pentagon_from_moduli(m, delta, s5=rng.uniform(-1, 1))
            if scale is not None:
                P = P.apply(random_isometry(rng, scale))
            yield P
    built = 0
    while built < 16:
        p4, p5 = random_point(rng, 1), random_point(rng, 1)
        try:
            P = build_pentagon(CubeRoot(int(rng.integers(0, 3))), p4, p5)
        except GeometryError:
            continue
        built += 1
        yield P


class TestMove34:
    def test_matches_the_least_slide_bit_for_bit(self):
        moved = 0
        for P in move_34_cases():
            t4 = tance(P.p4, P.p5)
            for f in (0.7, 1.3, 2.5):
                try:
                    want, want_mv = reference_move_34(P, f * t4)
                except GeometryError as err:
                    with pytest.raises(type(err)):
                        pentagons_module._move_34(P, f * t4, 1e-9)
                    continue
                got, got_mv = pentagons_module._move_34(P, f * t4, 1e-9)
                assert got_mv == want_mv
                assert got.delta == want.delta
                for a, b in zip(got.points, want.points):
                    assert a.rep.tobytes() == b.rep.tobytes() and a.sign == b.sign
                moved += 1
        assert moved >= 90


class TestConnect:
    def test_random_pairs_connect_within_six_moves(self):
        rng = default_rng(66)
        for k in (1, 2):
            for _ in range(4):
                A = pentagon_from_moduli(
                    random_moduli(rng), CubeRoot(k), s5=rng.uniform(-1, 1)
                )
                B = pentagon_from_moduli(
                    random_moduli(rng), CubeRoot(k), s5=rng.uniform(-1, 1)
                )
                moves, g = connect_pentagons(A, B)
                assert len(moves) <= 6
                assert form_residual(g.m) <= 1e-9
                replay = apply_pentagon_moves(A, moves).apply(g)
                for p, q in zip(replay.points, B.points):
                    assert projectively_equal(p, q, tol=1e-7)

    def test_connect_after_arbitrary_moves(self):
        rng = default_rng(67)
        A = pentagon_from_moduli(random_moduli(rng), CubeRoot(1), s5=0.1)
        B = apply_pentagon_moves(
            A,
            [
                Move(pair="34", s=0.9),
                Move(pair="12", s=-0.7),
                Move(pair="45", s=0.5),
                Move(pair="23", s=0.4),
            ],
        )
        moves, g = connect_pentagons(A, B)
        assert len(moves) <= 6
        replay = apply_pentagon_moves(A, moves).apply(g)
        for p, q in zip(replay.points, B.points):
            assert projectively_equal(p, q, tol=1e-7)

    def test_mixed_sign_pairs_connect(self):
        # p4 and p5 of opposite signs have ta(p4, p5) <= 0, and the 34
        # profile opens downward: both pentagons reach the level of larger
        # modulus, where the larger value can be out of reach of one of them
        rng = default_rng(71)
        for i in range(8):
            s4, s5 = ((1, -1), (-1, 1))[i % 2]
            k = 1 + (i // 2) % 2
            A, B = (built_pentagon(rng, k, s4, s5) for _ in range(2))
            moves, g = connect_pentagons(A, B)
            assert len(moves) <= 6
            replay = apply_pentagon_moves(A, moves).apply(g)
            for p, q in zip(replay.points, B.points):
                assert projectively_equal(p, q, tol=1e-7)

    def test_pairs_of_different_signs_raise_before_any_bend(self, count_calls):
        # no bend and no isometry changes a point's sign: of the 16 sign
        # patterns of A's and B's (p4, p5), the 12 that differ raise at
        # entry, and the 4 that agree connect
        rng = default_rng(7)
        pairs = [
            (built_pentagon(rng, k, sa4, sa5), built_pentagon(rng, k, sb4, sb5))
            for k in (1, 2)
            for sa4, sa5, sb4, sb5 in product((1, -1), repeat=4)
        ]
        counts = count_calls(paths.bending)
        raised = 0
        for A, B in pairs:
            if [p.sign for p in A.points] == [p.sign for p in B.points]:
                moves, g = connect_pentagons(A, B)
                replay = apply_pentagon_moves(A, moves).apply(g)
                for p, q in zip(replay.points, B.points):
                    assert projectively_equal(p, q, tol=1e-7)
                continue
            bends = counts["bending"]
            with pytest.raises(IncompatibleInvariants, match="sign patterns"):
                connect_pentagons(A, B)
            assert counts["bending"] == bends
            raised += 1
        assert raised == 24

    def test_slide_only_difference_needs_one_move(self):
        A = pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(1), s5=0.3)
        B = pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(1), s5=0.9)
        moves, _ = connect_pentagons(A, B)
        assert [m.pair for m in moves] == ["45"]

    def test_identical_pentagons_need_no_moves(self):
        A = pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(1), s5=0.3)
        moves, g = connect_pentagons(A, A)
        assert moves == []
        assert np.abs(g.m - np.eye(3)).max() <= 1e-9

    def test_b_side_equalization_is_undone_last(self):
        A = pentagon_from_moduli((-2.0, 3.0, 4.0), CubeRoot(1), s5=0.3)
        B = pentagon_from_moduli((-1.2, 2.2, 2.0), CubeRoot(1), s5=-0.2)
        moves, g = connect_pentagons(A, B)
        assert moves[-1].pair == "34"
        replay = apply_pentagon_moves(A, moves).apply(g)
        for p, q in zip(replay.points, B.points):
            assert projectively_equal(p, q, tol=1e-7)

    def test_45_alignment_builds_its_bending_once(self, count_calls):
        A = pentagon_from_moduli((-2.0, 3.0, 4.0), CubeRoot(1), s5=0.3)
        B = pentagon_from_moduli((-1.2, 2.2, 2.0), CubeRoot(1), s5=-0.2)
        # no move before the alignment touches p5, so the 45 pair's
        # bendings are the ones built with A.p5 as second point
        counts = count_calls(paths.bending, where=lambda p, q, *_: q is A.p5)
        moves, _ = connect_pentagons(A, B)
        assert [m.pair for m in moves].count("45") == 1
        assert counts["bending"] == 1

    def test_triple_stage_bends_once_per_move(self, count_calls):
        A, B = moved_pair()
        counts = count_calls(paths.bending)
        moves, _ = connect_pentagons(A, B)
        assert [m.pair for m in moves] == ["34", "23", "12", "45"]
        assert counts["bending"] == len(moves)

    def test_closure_failure_carries_gap_and_bound(self, monkeypatch):
        A, B = moved_pair()
        bend = pentagons_module._bend

        def misaligned(points, pair, s, tol, b=None):
            return bend(points, pair, s + 1e-2 if pair == "45" else s, tol, b)

        monkeypatch.setattr(pentagons_module, "_bend", misaligned)
        with pytest.raises(NotConjugate) as info:
            connect_pentagons(A, B)
        assert info.value.bound == triples_module.GAP_TOL
        assert info.value.value > info.value.bound

    def test_small_closure_failure_is_caught(self, monkeypatch):
        # a 45 move off by 1e-5 misses B by about 4e-6: 1 - cos of that
        # angle is about 1e-11, far below the bound, the distance is not
        A, B = moved_pair()
        bend = pentagons_module._bend

        def misaligned(points, pair, s, tol, b=None):
            return bend(points, pair, s + 1e-5 if pair == "45" else s, tol, b)

        monkeypatch.setattr(pentagons_module, "_bend", misaligned)
        with pytest.raises(NotConjugate) as info:
            connect_pentagons(A, B)
        assert info.value.bound == triples_module.GAP_TOL
        assert 1e-6 < info.value.value < 1e-5

    def test_different_central_values_are_rejected(self):
        A = pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(1))
        B = pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(2))
        with pytest.raises(DifferentDelta):
            connect_pentagons(A, B)


def frozen_far_pair():
    """A pentagon pair (k = 2) whose representatives have euclidean norms 5
    to 14.  The 45 move that aligns A with B is s = -1.96e-3, yet 1 - cos
    of the angle between A's p4 and its target is only 7.5e-10."""
    A = Pentagon(
        point([1.5613239632148974 + 0j,
               0.04263903217359869 - 0.004095628240357262j,
               1.196919793665843 - 0.0833689802946781j]),
        point([0.051540987337309184 + 0.0371483048869216j,
               -0.12745215815934943 - 0.003019046997763997j,
               1.0100938754372917 + 0j]),
        point([-1.216446455870021 - 0.10619568748838334j,
               0.048992274331030414 + 0.002784497984671589j,
               1.5790590553912223 + 0j]),
        point([-2.231469565109595 - 1.2868355223164654j,
               1.0291757946188762 - 1.7609662070234033j,
               3.43447330460053 + 0j]),
        point([-0.9928301063423237 - 0.6765478685886882j,
               0.46921008259013103 - 1.0114781515725801j,
               1.9200715588916282 + 0j]),
        delta=CubeRoot(2),
    )
    B = Pentagon(
        point([1.2785159888183355 + 1.114350577013128j,
               3.696004676846921 - 1.6809094430739562j,
               4.285123973614197 + 0j]),
        point([0.34372993197322915 + 0.46240873440480373j,
               0.9857629174188298 - 0.6333982743384224j,
               1.6446561972282072 + 0j]),
        point([-0.3175079729512243 + 0.15968341182629325j,
               1.1221350146120048 - 2.241512278023605j,
               2.7221084453873137 + 0j]),
        point([-1.9571222165168534 + 1.9017013618284226j,
               4.831187950910384 - 8.474969262551769j,
               10.179011565873322 + 0j]),
        point([-0.4634165196403627 + 0.7625735295911872j,
               1.4414877836272626 - 2.368516737411157j,
               3.0796155319215055 + 0j]),
        delta=CubeRoot(2),
    )
    return A, B


class TestAlignment:
    """The 45 leg is decided by its own parameter, as every other leg is."""

    @pytest.mark.parametrize("scale", [None, 1.0, 2.0])
    @pytest.mark.parametrize("s", [1e-3, 1e-4, 1e-5, 1e-6])
    def test_a_small_45_slide_is_one_move(self, s, scale):
        A = pentagon_from_moduli((-1.5, 3.0, 2.5), CubeRoot(1), s5=0.3)
        if scale is not None:
            A = A.apply(random_isometry(default_rng(5), scale))
        B = apply_pentagon_moves(A, [Move(pair="45", s=s)])
        moves, g = connect_pentagons(A, B)
        assert [m.pair for m in moves] == ["45"]
        assert _closure_gap(g, apply_pentagon_moves(A, moves).points, B.points) <= 1e-12

    def test_far_pair_ends_with_its_45_move(self):
        A, B = frozen_far_pair()
        verify_pentagon(A.points)
        verify_pentagon(B.points)
        moves, g = connect_pentagons(A, B)
        assert moves[-1].pair == "45"
        assert _closure_gap(g, apply_pentagon_moves(A, moves).points, B.points) <= 1e-12
