"""Reflections, traces, regularity, conjugation.

The trace formula is checked against direct matrix products (the honest
oracle), the custom exponential against scipy's, and every algebraic law of
reflections against its analytic statement.
"""

import dataclasses
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

import chgeom as chg
from chgeom import errors
from chgeom.core import _rephase
from chgeom.isometry import (
    EIGEN_TOL,
    IDENTITY,
    SEPARATION_TOL,
    CubeRoot,
    Isometry,
    _centralizer,
    _expm3,
    _frame_map,
    _logm3,
    _normalize_eigenbasis,
    _null_pair,
    _reflections,
    _sqrtm3,
    center_reduce,
    centralizer_basis,
    conjugator,
    is_regular,
    isometry,
    isometry_log,
    nearest_cube_root,
    project_to_su,
    project_to_su_algebra,
    rank_one_map,
    reflection,
    split_two_reflections,
    stabilizer_algebra,
    star,
    su_basis,
    trace_formula,
)
from chgeom.sampling import (
    default_rng,
    random_isometry,
    random_negative_point,
    random_point,
    random_strongly_regular_triple,
    random_su_element,
    random_vector,
)
from chgeom.triples import _standard_cols

J = chg.J


def form_residual(m):
    return float(np.abs(m.conj().T @ J @ m - J).max())


# A regular nilpotent element of the Lie algebra (cube zero, square not).
NILPOTENT = np.array(
    [[0.0, -1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], dtype=complex
)


def test_nilpotent_is_in_su():
    assert np.allclose(NILPOTENT + star(NILPOTENT), 0.0)
    assert np.trace(NILPOTENT) == 0
    assert np.allclose(NILPOTENT @ NILPOTENT @ NILPOTENT, 0.0)
    assert not np.allclose(NILPOTENT @ NILPOTENT, 0.0)


class TestReflection:
    def test_laws(self):
        rng = default_rng(0)
        for _ in range(50):
            p = random_point(rng)
            R = reflection(p).m
            assert np.allclose(R @ p.rep, p.rep, atol=1e-12)
            assert np.allclose(R @ R, np.eye(3), atol=1e-12)
            assert form_residual(R) < 1e-12
            assert np.trace(R) == pytest.approx(-1.0, abs=1e-12)
            assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-11)
            assert np.allclose(star(R), R, atol=1e-12)

    def test_negates_orthogonal_complement(self):
        rng = default_rng(1)
        p = random_point(rng)
        R = reflection(p).m
        for _ in range(10):
            w = chg.project_orthogonal(p, random_vector(rng))
            assert np.allclose(R @ w, -w, atol=1e-10)

    def test_equivariance(self):
        rng = default_rng(2)
        for _ in range(20):
            p = random_point(rng)
            g = random_isometry(rng)
            lhs = reflection(g.apply(p)).m
            rhs = g.m @ reflection(p).m @ g.inv().m
            assert np.allclose(lhs, rhs, atol=1e-10)

    def test_rank_one_map(self):
        rng = default_rng(3)
        v, p, x = random_vector(rng), random_point(rng), random_vector(rng)
        got = rank_one_map(v, p) @ x
        assert np.allclose(got, chg.form(x, p.rep) * v)

    def test_is_bitwise_the_formula_written_out(self):
        # reflection is the one-row case of the stacked build; its bits are
        # those of 2 v (J v)^* / <v, v> - I by self_product, np.outer and @,
        # for points and for raw vectors moved far out
        rng = default_rng(13)
        for i in range(1500):
            v = random_point(rng).rep
            if i % 2:
                v = random_isometry(rng, 1.0 + i % 3).m @ v
            want = (2.0 / chg.self_product(v)) * np.outer(v, (J @ v).conj()) - np.eye(3)
            assert reflection(v).m.tobytes() == want.tobytes()

    def test_stacked_rows_are_the_one_row_builds(self):
        rng = default_rng(14)
        for i in range(300):
            reps = np.array([random_point(rng).rep for _ in range(1 + i % 5)])
            reps = reps @ random_isometry(rng, 1.0 + i % 3).m.T
            stack = _reflections(reps)
            for v, m in zip(reps, stack):
                assert m.tobytes() == reflection(v).m.tobytes()


class TestIsometryType:
    def test_inverse_is_exact(self):
        rng = default_rng(4)
        g = random_isometry(rng)
        assert np.allclose(g.inv().m @ g.m, np.eye(3), atol=1e-13)
        assert np.allclose((g @ g.inv()).m, np.eye(3), atol=1e-13)

    def test_validating_factory(self):
        rng = default_rng(5)
        isometry(random_isometry(rng).m)  # accepts
        with pytest.raises(ValueError):
            isometry(np.diag([2.0, 0.5, 1.0]))
        # e^{i pi/9} I preserves the form; its determinant is e^{i pi/3}
        with pytest.raises(ValueError, match="determinant"):
            isometry(np.exp(1j * np.pi / 9.0) * np.eye(3))

    def test_matmul_takes_isometries_only(self):
        with pytest.raises(TypeError):
            IDENTITY @ 2.0

    def test_products_are_bitwise_the_matmul_chains(self):
        # Isometry @, inv and star multiply by ndarray.dot; @ is the reference
        rng = default_rng(15)
        for i in range(500):
            g, h = (random_isometry(rng, 0.5 + i % 3) for _ in range(2))
            assert (g @ h).m.tobytes() == (g.m @ h.m).tobytes()
            want = J @ g.m.conj().T @ J
            assert star(g.m).tobytes() == g.inv().m.tobytes() == want.tobytes()

    def test_validating_factory_rejects_non_finite(self):
        for x in (np.nan, np.inf, -np.inf):
            m = np.eye(3, dtype=complex)
            m[0, 1] = x
            with pytest.raises(ValueError):
                isometry(m)

    def test_apply_moves_points(self):
        rng = default_rng(6)
        p = random_negative_point(rng)
        g = random_isometry(rng)
        q = g.apply(p)
        assert q.sign == -1
        assert chg.tance(p, q) >= 1.0  # both inside the ball

    def test_apply_is_bitwise_point_of_product(self):
        rng = default_rng(7)
        for _ in range(2000):
            p = random_point(rng)
            g = random_isometry(rng, rng.uniform(0.1, 2.0))
            got, want = g.apply(p), chg.point(g.m @ p.rep)
            assert got.rep.tobytes() == want.rep.tobytes() and got.sign == want.sign

    def test_is_a_frozen_slotted_value(self):
        g = random_isometry(default_rng(8))
        assert not hasattr(g, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.m = np.eye(3, dtype=complex)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del g.m
        assert Isometry(m=g.m).m is g.m


class TestExpLog:
    def test_expm3_matches_scipy(self):
        rng = default_rng(7)
        for scale in (1e-3, 0.1, 1.0, 7.0):
            for _ in range(10):
                a = scale * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
                assert np.allclose(_expm3(a), scipy.linalg.expm(a), atol=1e-12 * max(1, np.abs(scipy.linalg.expm(a)).max()))

    def test_expm3_nilpotent_is_exact(self):
        n = np.array([[0.0, 1.0, 0], [0, 0, 1.0], [0, 0, 0]])
        expected = np.eye(3) + n + n @ n / 2.0
        assert np.array_equal(_expm3(n), expected + 0j)

    def test_expm3_batch(self):
        # general complex matrices, not only su(2, 1) elements, get the
        # serial reference's bits
        rng = default_rng(8)
        a = 0.3 * (rng.standard_normal((11, 3, 3)) + 1j * rng.standard_normal((11, 3, 3)))
        for k in range(11):
            assert np.array_equal(_expm3(a[k]), reference_expm3(a[k]))

    def test_log_roundtrip(self):
        rng = default_rng(9)
        for scale in (1e-4, 0.05, 0.2):
            y = random_su_element(rng, scale)
            m = _expm3(y)
            assert np.allclose(_logm3(m), y, atol=1e-11)
        y = random_su_element(rng, 1.5)
        m = _expm3(y)
        assert np.allclose(_expm3(_logm3(m)), m, atol=1e-9)

    def test_isometry_log_lands_in_algebra(self):
        rng = default_rng(10)
        y = random_su_element(rng, 0.1)
        g = project_to_su(_expm3(y))
        back = isometry_log(g)
        assert np.allclose(back, y, atol=1e-10)
        assert np.allclose(back + star(back), 0.0, atol=1e-14)
        assert abs(np.trace(back)) < 1e-14

    def test_expm3_is_bitwise_reference(self):
        # random_isometry draws through _expm3, so the seeded inputs of the
        # tests and the benchmark depend on these bits
        rng = default_rng(12)
        for _ in range(2000):
            a = random_su_element(rng, 10.0 ** rng.uniform(-3.0, np.log10(3.0)))
            assert np.array_equal(_expm3(a), reference_expm3(a))
        n = np.array([[0.0, 1.0, 0], [0, 0, 1.0], [0, 0, 0]])
        assert np.array_equal(_expm3(n), reference_expm3(n))


def reference_expm3(a):
    """The serial scaled Taylor exponential _expm3 once was; _expm3 must
    reproduce it bit for bit."""
    a = np.asarray(a, dtype=complex)
    norm = float(np.abs(a).sum())
    s = 0
    while norm > 0.25:
        norm *= 0.5
        s += 1
    if s:
        a = a * (0.5**s)
    out = np.eye(3, dtype=complex) + a
    term = a
    for k in range(2, 18):
        term = term @ a / k
        out = out + term
        if float(np.abs(term).max()) < 1e-18:
            break
    for _ in range(s):
        out = out @ out
    return out


def reference_log_series(m):
    """The Mercator series _logm3 runs near the identity, written out."""
    x = np.asarray(m, dtype=complex) - np.eye(3)
    term = x
    out = x.copy()
    for k in range(2, 80):
        term = -term @ x
        out = out + term / k
        if float(np.abs(term).max()) < 1e-18 * k:
            break
    return out


class TestLogm:
    def test_series_branch_is_bitwise_reference(self):
        rng = default_rng(13)
        n = 0
        for _ in range(500):
            m = _expm3(random_su_element(rng, 10.0 ** rng.uniform(-6.0, -1.3)))
            if np.abs(m - np.eye(3)).sum() > 0.3:
                continue
            assert np.array_equal(_logm3(m), reference_log_series(m))
            n += 1
        assert n >= 400

    def test_matches_scipy_far_from_identity(self):
        rng = default_rng(14)
        far = 0
        for scale in (0.1, 0.5, 1.0, 1.5):
            for _ in range(50):
                m = _expm3(random_su_element(rng, scale))
                far += np.abs(m - np.eye(3)).sum() > 0.3
                got = _logm3(m)
                want = scipy.linalg.logm(m)
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
                assert np.abs(_expm3(got) - m).max() <= 1e-11 * np.abs(m).max()
        assert far >= 150  # the square-root branch, not the series

    def test_one_sided_near_the_cut(self):
        # an eigenvalue 1e-6..1e-2 rad short of -1, the others away from
        # the cut: exact log from the diagonal form
        rng = default_rng(15)
        for d in (1e-2, 1e-4, 1e-6):
            for _ in range(5):
                g = random_isometry(rng, 0.5)
                th = np.array([np.pi - d, -1.0, 1.0 - np.pi + d])
                m = g.m @ np.diag(np.exp(1j * th)) @ g.inv().m
                want = g.m @ np.diag(1j * th) @ g.inv().m
                assert np.abs(_logm3(m) - want).max() <= 1e-11 * np.abs(want).max()

    def test_reflection_has_no_principal_log(self):
        rng = default_rng(16)
        for _ in range(10):
            r = reflection(random_point(rng))
            with pytest.raises(errors.NoPrincipalLog):
                _logm3(r.m)
            with pytest.raises(errors.NoPrincipalLog):
                isometry_log(r)
        with pytest.raises(errors.NoPrincipalLog):
            _logm3(np.zeros((3, 3)))

    def test_square_root_of_a_singular_matrix_raises(self):
        with pytest.raises(errors.NoPrincipalLog, match="singular iterate"):
            _sqrtm3(np.zeros((3, 3)))

    def test_square_root_across_the_cut_does_not_converge(self):
        # the scalar iteration on the eigenvalue -2 never settles
        with pytest.raises(errors.NoPrincipalLog, match="did not converge"):
            _sqrtm3(np.diag([-2.0, 1.0, 1.0]))

    def test_far_unipotent_runs_out_of_square_roots(self):
        # sqrt(I + c E13) = I + (c/2) E13 exactly, so reaching the series
        # radius 0.3 from c = 1e25 takes 85 roots, more than the 64 allowed
        m = np.eye(3, dtype=complex)
        m[0, 2] = 1e25
        with pytest.raises(errors.NoPrincipalLog, match="64 square roots"):
            _logm3(m)

    def test_straddling_the_cut_raises_rather_than_drifts(self):
        # eigenvalues e^{+-i(pi - 1e-6)}: the square roots lose ~1e-3, so
        # no log comes back
        rng = default_rng(17)
        for _ in range(5):
            g = random_isometry(rng, 0.5)
            th = np.array([np.pi - 1e-6, -(np.pi - 1e-6), 0.0])
            m = g.m @ np.diag(np.exp(1j * th)) @ g.inv().m
            with pytest.raises(errors.NoPrincipalLog):
                _logm3(m)


def reference_project_to_su(m):
    """project_to_su as it was written with @ and np.eye."""
    m = np.asarray(m, dtype=complex)
    for _ in range(3):
        e = m.conj().T @ J @ m - J
        if float(np.abs(e).max()) < 1e-15:
            break
        m = m @ (np.eye(3) - 0.5 * (J @ e))
    d = np.linalg.det(m)
    return m * np.exp(-np.log(d) / 3.0)


class TestProjectToSu:
    def test_is_bitwise_reference(self):
        # drift from 1e-16 to 1e-9, so that the loop stops after 0 to 3 steps
        rng = default_rng(16)
        for i in range(1500):
            g = random_isometry(rng, 0.3 + i % 4)
            drift = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            m = g.m + drift * 10.0 ** rng.uniform(-16.0, -9.0)
            assert project_to_su(m).m.tobytes() == reference_project_to_su(m).tobytes()

    def test_frame_map_is_bitwise_reference(self):
        rng = default_rng(17)
        for i in range(300):
            T = random_strongly_regular_triple(rng)
            pa = _standard_cols(T)
            pb = _standard_cols(T.apply(random_isometry(rng, 0.5 + i % 3)))
            want = center_reduce(Isometry(reference_project_to_su(pb @ np.linalg.inv(pa))))
            assert _frame_map(pa, pb).m.tobytes() == want.m.tobytes()

    def test_repairs_drift(self):
        rng = default_rng(11)
        g = random_isometry(rng)
        noisy = g.m + 1e-8 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        fixed = project_to_su(noisy)
        assert form_residual(fixed.m) < 1e-14
        assert np.linalg.det(fixed.m) == pytest.approx(1.0, abs=1e-14)
        assert np.abs(fixed.m - g.m).max() < 1e-7

    def test_zero_determinant_raises(self):
        # the Newton steps keep the zero matrix, whose determinant has no
        # cube root; once that warned in np.log and returned NaN entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="determinant"):
                project_to_su(np.zeros((3, 3)))

    def test_frame_map_of_incongruent_frames_raises(self):
        # Frames of two unrelated triples have different Grams, and on the
        # 99th of these pairs the Newton steps blow pb pa^-1 up to entries
        # of 3e20 whose determinant computes to 0 (which other pairs do so
        # depends on numpy's SIMD dispatch).  Every pair gives a finite map
        # or raises NotConjugate, without a warning.
        rng = default_rng(0)
        raised = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(100):
                pa, pb = (_standard_cols(random_strongly_regular_triple(rng)) for _ in "ab")
                try:
                    g = _frame_map(pa, pb)
                except errors.NotConjugate as err:
                    assert np.isnan(err.value) and err.bound == sys.float_info.max
                    raised += 1
                else:
                    assert np.isfinite(g.m).all()
        assert raised >= 1

    def test_algebra_projection(self):
        rng = default_rng(12)
        y = random_su_element(rng)
        assert np.allclose(project_to_su_algebra(y), y, atol=1e-14)
        noisy = y + 1e-6 * random_vector(rng)[0] * np.eye(3)
        clean = project_to_su_algebra(noisy)
        assert abs(np.trace(clean)) < 1e-14
        assert np.allclose(clean + star(clean), 0.0, atol=1e-14)


class TestSuBasis:
    def test_basis_is_in_algebra_and_independent(self):
        basis = su_basis()
        assert len(basis) == 8
        for b in basis:
            assert abs(np.trace(b)) == 0.0
            assert np.allclose(b + star(b), 0.0)
        flat = np.array([np.concatenate([b.real.ravel(), b.imag.ravel()]) for b in basis])
        assert np.linalg.matrix_rank(flat) == 8


class TestTraceFormula:
    def test_against_direct_products(self):
        rng = default_rng(13)
        for n in range(1, 7):
            for _ in range(8):
                pts = [random_point(rng) for _ in range(n)]
                prod = np.eye(3, dtype=complex)
                for p in pts:
                    prod = reflection(p).m @ prod  # R_n ... R_1
                got = trace_formula(chg.gram(pts))
                assert got == pytest.approx(np.trace(prod), abs=1e-8)

    def test_small_cases_in_closed_form(self):
        rng = default_rng(14)
        p1, p2, p3 = (random_point(rng) for _ in range(3))
        assert trace_formula(chg.gram([p1])) == pytest.approx(-1.0)
        ta = chg.tance(p1, p2)
        assert trace_formula(chg.gram([p1, p2])) == pytest.approx(4 * ta - 1)
        a = chg.alpha(p1, p2, p3)
        b = chg.beta(p1, p2, p3)
        expected = 8j * a + 4 * b - 1
        assert trace_formula(chg.gram([p1, p2, p3])) == pytest.approx(expected, abs=1e-10)

    def test_zero_diagonal(self):
        bad = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(errors.ZeroDiagonal) as info:
            trace_formula(bad)
        assert info.value.value == 0.0
        assert info.value.bound == pytest.approx(1e-9, rel=1e-12)


class TestRegularity:
    def test_identity_and_reflection_are_not_regular(self):
        rng = default_rng(15)
        assert not is_regular(IDENTITY)
        assert not is_regular(reflection(random_point(rng)))

    def test_generic_isometry_is_regular(self):
        rng = default_rng(16)
        for _ in range(10):
            assert is_regular(random_isometry(rng))

    def test_unipotent_jordan_block_is_regular(self):
        g = project_to_su(_expm3(NILPOTENT))
        vals = np.linalg.eigvals(g.m)
        assert np.allclose(vals, 1.0, atol=1e-6)  # all eigenvalues equal
        assert is_regular(g)

    def test_complex_reflections_are_not_regular(self):
        # one eigenvalue on a two-dimensional eigenspace: the complement of
        # a negative point (first) or a positive one (second)
        rng = default_rng(141)
        for _ in range(10):
            g = random_isometry(rng, 0.7)
            th = rng.uniform(0.2, 2.8)
            u, w = np.exp(1j * th), np.exp(-2j * th)
            for d in ([u, u, w], [u, w, u]):
                f = chg.Isometry(g.m @ np.diag(d) @ star(g.m))
                assert not is_regular(f)
                with pytest.raises(errors.NotRegular):
                    centralizer_basis(f)

    def test_regular_elliptics_are_regular(self):
        rng = default_rng(142)
        for _ in range(10):
            g = random_isometry(rng, 0.7)
            a, b = rng.uniform(0.3, 0.9), rng.uniform(1.5, 2.5)
            d = np.exp(1j * np.array([a, b, -(a + b)]))
            f = chg.Isometry(g.m @ np.diag(d) @ star(g.m))
            assert is_regular(f)
            assert len(centralizer_basis(f)) == 2


class TestCentralizer:
    def test_dimension_two_for_regular(self):
        rng = default_rng(17)
        for _ in range(10):
            g = random_isometry(rng)
            basis = centralizer_basis(g)
            assert len(basis) == 2
            for y in basis:
                assert np.allclose(y @ g.m - g.m @ y, 0.0, atol=1e-9)
                assert np.allclose(y + star(y), 0.0, atol=1e-10)
                assert abs(np.trace(y)) < 1e-10

    def test_unipotent_centralizer(self):
        g = project_to_su(_expm3(NILPOTENT))
        basis = centralizer_basis(g)
        assert len(basis) == 2

    def test_non_regular_raises(self):
        rng = default_rng(18)
        with pytest.raises(errors.NotRegular):
            centralizer_basis(IDENTITY)
        with pytest.raises(errors.NotRegular):
            centralizer_basis(reflection(random_point(rng)))

    def test_stabilizer_algebra(self):
        rng = default_rng(19)
        for _ in range(5):
            p = random_point(rng)
            basis = stabilizer_algebra(p)
            assert len(basis) == 3
            for y in basis:
                assert np.allclose(y @ p.rep, 0.0, atol=1e-10)
                assert np.allclose(y + star(y), 0.0, atol=1e-10)


def reference_su_kernel(images, scale=1.0):
    """_su_kernel one basis element at a time: the realified images as
    columns, and each kernel element summed from the su basis."""
    cols = [np.concatenate([w.real.ravel(), w.imag.ravel()]) for w in images]
    _, s, vt = np.linalg.svd(np.array(cols).T / scale)
    rank = int(np.sum(s > EIGEN_TOL * max(s[0], 1.0)))
    out = []
    for c in vt[rank:]:
        _rephase(c)
        out.append(sum(ci * bi for ci, bi in zip(c, su_basis())))
    return out


def reference_centralizer(F):
    scale = max(1.0, float(np.abs(F.m).max()))
    return reference_su_kernel([b @ F.m - F.m @ b for b in su_basis()], scale)


def same_span(a, b) -> bool:
    """Whether two lists of algebra elements span the same real space."""
    rows = np.array([np.concatenate([y.real.ravel(), y.imag.ravel()]) for y in a + b])
    sv = np.linalg.svd(rows, compute_uv=False)
    return len(a) == len(b) and (len(a) == len(rows) or sv[len(a)] <= 1e-12 * sv[0])


class TestStackedKernel:
    """The stacked kernel against the element-by-element reference."""

    def test_regular_isometries(self):
        rng = default_rng(301)
        for scale in (0.1, 0.5, 1.0, 1.5, 2.0):
            for _ in range(10):
                F = random_isometry(rng, scale)
                got, want = _centralizer(F), reference_centralizer(F)
                assert len(got) == len(want) == 2
                assert same_span(got, want)
                # the reference commutes to 6.0e-13 of |F| |Y| over these draws
                size = max(1.0, float(np.abs(F.m).max()))
                for y in got:
                    assert np.abs(y @ F.m - F.m @ y).max() <= 1e-11 * size * np.abs(y).max()

    def test_unipotent(self):
        F = project_to_su(_expm3(NILPOTENT))
        got, want = _centralizer(F), reference_centralizer(F)
        assert len(got) == len(want) == 2
        assert same_span(got, want)
        for y in got:
            assert np.abs(y @ F.m - F.m @ y).max() <= 1e-13 * np.abs(F.m).max()

    def test_non_regular_verdicts_agree(self):
        rng = default_rng(302)
        cases = [IDENTITY, reflection(random_point(rng)), reflection(random_negative_point(rng))]
        for _ in range(5):
            g = random_isometry(rng, 0.7)
            u = np.exp(1j * rng.uniform(0.2, 2.8))
            cases.append(Isometry(g.m @ np.diag([u, u, u**-2]) @ star(g.m)))
        for F in cases:
            got, want = _centralizer(F), reference_centralizer(F)
            assert len(got) == len(want) > 2
            assert same_span(got, want)
            assert not is_regular(F)

    def test_stabilizer_algebra(self):
        rng = default_rng(303)
        points = [random_point(rng) for _ in range(10)]
        points += [random_negative_point(rng) for _ in range(5)]
        for p in points:
            got = stabilizer_algebra(p)
            want = reference_su_kernel([b @ p.rep for b in su_basis()])
            assert len(got) == len(want) == 3
            assert same_span(got, want)
            # the reference annihilates p to 1.2e-14 of |Y| |p| over these draws
            for y in got:
                assert np.abs(y @ p.rep).max() <= 1e-13 * np.abs(y).max() * np.abs(p.rep).max()


class TestConjugator:
    def test_recovers_conjugation(self):
        rng = default_rng(20)
        for _ in range(20):
            f = random_isometry(rng)
            g = random_isometry(rng)
            target = g @ f @ g.inv()
            h = conjugator(f, target)
            hscale = max(1.0, float(np.abs(h.m).max()) ** 2)
            assert form_residual(h.m) < 1e-13 * hscale
            assert np.allclose((h @ f @ h.inv()).m, target.m, atol=1e-8)

    def test_elliptic_conjugation(self):
        rng = default_rng(21)
        for _ in range(10):
            th = rng.uniform(0.3, 2.0, size=2)
            y = 1j * np.diag([th[0], th[1], -th[0] - th[1]])
            f = project_to_su(_expm3(y))
            g = random_isometry(rng)
            target = g @ f @ g.inv()
            h = conjugator(f, target)
            assert np.allclose((h @ f @ h.inv()).m, target.m, atol=1e-8)

    def test_different_spectra_not_conjugate(self):
        rng = default_rng(22)
        f, g = random_isometry(rng), random_isometry(rng)
        with pytest.raises(errors.NotConjugate) as info:
            conjugator(f, g)
        # the spectral distance and the bound it was tested against
        assert info.value.value > info.value.bound >= 1e3 * chg.DEFAULT_TOL

    def test_same_trace_different_signs_not_conjugate(self):
        # Same eigenvalue multiset, but the negative eigendirection carries
        # a different eigenvalue: genuinely different conjugacy classes.
        th1, th2 = 0.7, 1.9
        th3 = -th1 - th2
        f = project_to_su(_expm3(1j * np.diag([th1, th2, th3])))
        g = project_to_su(_expm3(1j * np.diag([th3, th2, th1])))
        assert f.trace == pytest.approx(g.trace, abs=1e-12)
        with pytest.raises(errors.NotConjugate):
            conjugator(f, g)

    def test_repeated_eigenvalue_carries_gap_and_bound(self):
        # a reflection's eigenvalue -1 is double: the gap is at roundoff
        r = reflection(random_negative_point(default_rng(26)))
        with pytest.raises(errors.NotRegular) as info:
            conjugator(r, r)
        assert info.value.value <= 1e-12
        assert info.value.bound == pytest.approx(SEPARATION_TOL, rel=1e-12)

    def test_unpaired_non_unit_eigenvalues_carry_value_and_bound(self):
        # 2 * conj(0.4) - 1 = -0.2: not the pair (lam, 1/conj(lam))
        vals = np.array([2.0, 1.0, 0.4], dtype=complex)
        with pytest.raises(errors.NotConjugate) as info:
            _normalize_eigenbasis(vals, np.eye(3, dtype=complex))
        assert info.value.value == pytest.approx(0.2, rel=1e-12)
        assert info.value.bound == 1e-6

    def test_isotropic_unit_eigenvector_carries_value_and_bound(self):
        vecs = np.eye(3, dtype=complex)
        vecs[:, 0] = [1.0, 0.0, 1.0]
        vals = np.array([1.0, 1j, -1j])
        with pytest.raises(errors.NotRegular) as info:
            _normalize_eigenbasis(vals, vecs)
        assert info.value.value == 0.0
        assert info.value.bound == 1e-8

    def test_one_non_unit_eigenvalue_is_not_conjugate(self):
        vals = np.array([2.0, 1.0, 1j])
        with pytest.raises(errors.NotConjugate, match="not closed"):
            _normalize_eigenbasis(vals, np.eye(3, dtype=complex))

    def test_orthogonal_null_pair_carries_value_and_bound(self):
        # an isotropic vector pairs to zero with itself
        v = np.array([1.0, 0.0, 1.0], dtype=complex)
        with pytest.raises(errors.NotRegular) as info:
            _null_pair(v, 3.0 * v, errors.NotRegular)
        assert info.value.value == 0.0
        assert info.value.bound == 1e-10

    def test_defective_raises_not_regular(self):
        g = project_to_su(_expm3(NILPOTENT))
        h = random_isometry(default_rng(23))
        with pytest.raises(errors.NotRegular):
            conjugator(g, h @ g @ h.inv())


class TestFrameMap:
    @pytest.mark.parametrize("scale", [0.3, 1.0])
    def test_carries_frame_onto_equal_gram_frame(self, scale):
        # triples with equal coordinates have standard frames with equal
        # Grams; the map is exact up to the unit scalar fixing det g = 1.
        # These frames reach euclidean norm 60 and condition number 4e3;
        # beyond that the frames themselves limit the accuracy (at
        # random_isometry scale 2: norm 650, condition 2e6, error 1e-11).
        rng = default_rng(24)
        for _ in range(20):
            T = random_strongly_regular_triple(rng)
            pa = _standard_cols(T)
            pb = _standard_cols(T.apply(random_isometry(rng, scale)))
            g = _frame_map(pa, pb)
            got = g.m @ pa
            z = np.vdot(pb, got) / np.vdot(pb, pb)
            assert abs(abs(z) - 1.0) <= 1e-12
            assert np.abs(got - z * pb).max() <= 1e-12 * np.abs(pb).max()
            assert center_reduce(g) is g


class TestSplitTwoReflections:
    def test_roundtrip(self):
        rng = default_rng(24)
        for _ in range(20):
            x1 = random_negative_point(rng)
            x2 = random_negative_point(rng)
            if chg.projectively_equal(x1, x2, 1e-6):
                continue
            g = reflection(x2) @ reflection(x1)
            y1, y2 = split_two_reflections(g)
            assert y1.sign == -1 and y2.sign == -1
            back = reflection(y2) @ reflection(y1)
            assert np.allclose(back.m, g.m, atol=1e-9)
            # the split points lie on the same complex geodesic
            pol = chg.polar_point(x1, x2)
            assert abs(chg.form(y1.rep, pol.rep)) < 1e-7
            assert abs(chg.form(y2.rep, pol.rep)) < 1e-7

    def test_parameter_slides_along_geodesic(self):
        rng = default_rng(25)
        x1, x2 = random_negative_point(rng), random_negative_point(rng)
        g = reflection(x2) @ reflection(x1)
        a1, a2 = split_two_reflections(g, s_param=0.0)
        b1, b2 = split_two_reflections(g, s_param=0.8)
        assert not chg.projectively_equal(a1, b1, 1e-6)
        assert np.allclose((reflection(b2) @ reflection(b1)).m, g.m, atol=1e-9)
        # translation length is preserved: same pairwise invariant
        assert chg.tance(a1, a2) == pytest.approx(chg.tance(b1, b2), abs=1e-9)

    def test_rejects_identity_and_elliptic(self):
        with pytest.raises(errors.NotTwoReflectionProduct):
            split_two_reflections(IDENTITY)
        elliptic = project_to_su(_expm3(1j * np.diag([0.5, 0.3, -0.8])))
        with pytest.raises(errors.NotTwoReflectionProduct):
            split_two_reflections(elliptic)

    def test_complex_spectrum_carries_value_and_bound(self):
        elliptic = project_to_su(_expm3(1j * np.diag([0.5, 0.3, -0.8])))
        with pytest.raises(errors.NotTwoReflectionProduct) as info:
            split_two_reflections(elliptic)
        # the largest |Im| of e^{0.5i}, e^{0.3i}, e^{-0.8i}
        assert info.value.value == pytest.approx(np.sin(0.8), rel=1e-12)
        assert info.value.bound == pytest.approx(1e-7, rel=1e-12)

    def test_non_reciprocal_extremes_carry_value_and_bound(self):
        # a real spectrum (1/2, 1, 3) no isometry has: 1/2 * 3 - 1 = 1/2
        g = Isometry(np.diag([0.5, 1.0, 3.0]).astype(complex))
        with pytest.raises(errors.NotTwoReflectionProduct) as info:
            split_two_reflections(g)
        assert info.value.value == 0.5
        assert info.value.bound == 1e-6

    def test_negative_unit_eigenvector_carries_value_and_bound(self):
        # spectrum (1/2, 1, 2), but the eigenvalue 1 sits on the negative
        # axis e3, where a product of two reflections has a positive one
        g = Isometry(np.diag([0.5, 2.0, 1.0]).astype(complex))
        with pytest.raises(errors.NotTwoReflectionProduct) as info:
            split_two_reflections(g)
        assert info.value.value == -1.0
        assert info.value.bound == 0.0


class TestCubeRoots:
    def test_nearest(self):
        w = np.exp(2j * np.pi / 3)
        assert nearest_cube_root(1.02 + 0.01j).k == 0
        assert nearest_cube_root(w * (1.01 - 0.02j)).k == 1
        assert nearest_cube_root(w**2 * 1.1).k == 2
        assert CubeRoot(1).value == pytest.approx(w)

    def test_center_reduce(self):
        rng = default_rng(26)
        w = np.exp(2j * np.pi / 3)
        y = random_su_element(rng, 1e-3)
        g = project_to_su(_expm3(y))
        twisted = chg.isometry.Isometry((w * g.m))
        reduced = center_reduce(twisted)
        assert np.allclose(reduced.m, g.m, atol=1e-12)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    def test_center_reduce_keeps_the_largest_real_trace_rule(self, scale):
        # the cube root nearest trace / 3 is the one whose conjugate
        # maximizes Re(omega^k trace), the rule written out here
        rng = default_rng(27)
        w = np.exp(2j * np.pi / 3)
        for _ in range(50):
            g = random_isometry(rng, scale)
            for j in range(3):
                twisted = Isometry(w**j * g.m)
                tr = twisted.trace
                k = max((0, 1, 2), key=lambda k: (w**k * tr).real)
                reduced = center_reduce(twisted)
                if k == 0:
                    assert reduced is twisted
                else:
                    assert reduced.m.tobytes() == (w**k * twisted.m).tobytes()
