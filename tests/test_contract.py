"""The library's contract on seeded draws, far out and near the cone: each
call returns a finite result or raises a GeometryError or a ValueError, and
no numpy warning gets out (warnings are errors here).

Inputs stay within the range each function admits without a check of its
own: vectors at magnitudes 1e-12 to 1e12, isometries at scales 0.5 to 8,
boosts of rapidity up to 60.  Beyond it, at |v| of about 1e154 or with
non-finite entries, `point` lets numpy's overflow or invalid-value warning
out before its ValueError.
"""

import enum
import math
import warnings

import numpy as np
import pytest

import chgeom as chg
from chgeom.errors import GeometryError
from chgeom.isometry import Isometry, project_to_su
from chgeom.sampling import default_rng, random_isometry

ALLOWED = (GeometryError, ValueError)


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def finite(x) -> bool:
    """Whether every number a result holds is finite."""
    if isinstance(x, (bool, enum.Enum)) or x is None:
        return True
    if isinstance(x, (int, float, complex)):
        return math.isfinite(abs(x))
    if isinstance(x, np.ndarray):
        return bool(np.isfinite(x).all())
    if isinstance(x, (tuple, list)):
        return all(map(finite, x))
    if isinstance(x, chg.Point):
        return finite(x.rep)
    if isinstance(x, Isometry):
        return finite(x.m)
    if isinstance(x, chg.Triple):
        return finite(x.points)
    if isinstance(x, chg.SCoords):
        return finite([x.t, x.t1, x.t2, x.alpha, x.beta])
    if isinstance(x, chg.Bending):
        return finite([x.cols, x.cols_inv, x.rate, x.th_max])
    raise TypeError(f"no finiteness test for {type(x).__name__}")


def call(f, *args):
    """f(*args) when it returns a finite result, None when it raises a
    GeometryError or a ValueError; anything else fails the test."""
    try:
        out = f(*args)
    except ALLOWED:
        return None
    assert finite(out), (f.__qualname__, out)
    return out


def random_vectors(rng, n: int) -> np.ndarray:
    """n complex 3-vectors at magnitudes 1e-12 to 1e12, a fifth of them
    within 1e-12 to 1e-2 (relative) of the isotropic cone."""
    v = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    near = rng.random(n) < 0.2
    eps = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-12.0, -2.0, n)
    v[near, 2] *= np.linalg.norm(v[near, :2], axis=1) * (1.0 + eps[near]) / np.abs(v[near, 2])
    return v * 10.0 ** rng.uniform(-12.0, 12.0, (n, 1))


@pytest.fixture(scope="module")
def triples():
    """1 500 triples of points spanned by random_vectors; a vector that
    spans no point (IsotropicVector) leaves its triple out."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = [call(chg.point, v) for v in random_vectors(default_rng(2026), 4500)]
    out = [tuple(points[k : k + 3]) for k in range(0, 4500, 3) if None not in points[k : k + 3]]
    assert len(out) > 1000
    return out


def test_pairs_and_bendings(triples):
    rng = default_rng(2026)
    for p1, p2, p3 in triples:
        call(chg.tance, p1, p2)
        call(chg.line_type, p1, p2)
        call(chg.polar_point, p1, p2)
        b = call(chg.bending, p1, p2)
        if b is not None:
            for s in (0.3, 10.0 ** rng.uniform(-3.0, 300.0), math.nan, math.inf):
                call(b.evaluate, s)
        call(chg.make_hyperbolic, p1, p2, p3)


def test_triples(triples):
    for points in triples:
        T = chg.triple(*points)
        call(chg.s_coords, T)
        call(chg.classify_triple, T)
        call(T.product)


def test_isometries():
    rng = default_rng(2026)
    for _ in range(300):
        scale = rng.uniform(0.5, 8.0)
        F = call(random_isometry, rng, scale)
        if F is None:
            continue
        call(chg.decompose_three_reflections, F)
        call(chg.isometry_log, F)
        call(chg.is_regular, F)
        call(chg.split_two_reflections, F)
        g = call(random_isometry, rng, 0.5)
        if g is not None:
            call(chg.conjugator, F, g @ F @ g.inv())


def boost(r: float) -> Isometry:
    """The translation by 2r along the geodesic of the first and last axes."""
    c, s = math.cosh(r), math.sinh(r)
    return Isometry(np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, c]], dtype=complex))


def test_boosts():
    rng = default_rng(2026)
    for r in np.concatenate([[0.0, 1e-9, 1e-4, 20.0, 40.0, 60.0], rng.uniform(0.0, 60.0, 60)]):
        F = boost(float(r))
        call(chg.decompose_three_reflections, F)
        call(chg.split_two_reflections, F)


def test_projection_of_random_matrices():
    rng = default_rng(2026)
    for _ in range(300):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        call(project_to_su, m * 10.0 ** rng.uniform(-5.0, 5.0))
