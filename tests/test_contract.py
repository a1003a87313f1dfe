"""The library's contract on seeded draws, far out and near the cone: each
call returns a finite result or raises a GeometryError or a ValueError, and
no numpy warning gets out (warnings are errors here).  Through `chg`, each
call exits 0, 1 or 2.

Inputs stay within the range each function admits without a check of its
own: vectors at magnitudes 1e-12 to 1e12, isometries at scales 0.5 to 8,
boosts of rapidity up to 60.  Beyond it, at |v| of about 1e154 or with
non-finite entries, `point` lets numpy's overflow or invalid-value warning
out before its ValueError.
"""

import contextlib
import enum
import io
import json
import math
import warnings

import numpy as np
import pytest

import chgeom as chg
from chgeom import cli, holonomy, jsonio
from chgeom.errors import GeometryError
from chgeom.isometry import Isometry, project_to_su
from chgeom.sampling import (
    default_rng,
    random_isometry,
    random_negative_point,
    random_strongly_regular_triple,
)
from chgeom.triples import _SIGN_PATTERNS

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
    if isinstance(x, chg.Pentagon):
        return finite(x.points)
    if isinstance(x, holonomy.VerticalPart):
        return finite([x.c1, x.c2, x.lie, x.residual])
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


def test_chart_pentagons_verify():
    """Moduli far out on the chart, both sheets: a pentagon that comes back
    holds its relation at RELATION_TOL and carries the requested delta."""
    rng = default_rng(2026)
    n = 3000
    t1 = -(10.0 ** rng.uniform(-3.0, 8.0, n))
    t2 = 1.0 + 10.0 ** rng.uniform(-8.0, 8.0, n)
    t4 = 1.0 + 10.0 ** rng.uniform(-8.0, 3.0, n)
    ks = rng.integers(1, 3, n)
    sheets = rng.choice((1, -1), n)
    s5 = rng.uniform(-5.0, 5.0, n)
    built = 0
    for m, k, s, sheet in zip(zip(t1, t2, t4), ks, s5, sheets):
        delta = chg.CubeRoot(int(k))
        P = call(chg.pentagon_from_moduli, m, delta, float(s), int(sheet))
        if P is None:
            continue
        assert P.delta == delta
        assert chg.verify_pentagon(P.points) == delta, m
        built += 1
    assert built > 100


def near_ramification_coords(rng):
    """Coordinates at t = 1 or within 1e-16 to 1e-6 of it, beta taken from
    the surface relation; a fifth of the all-negative draws are real."""
    sigma = _SIGN_PATTERNS[rng.integers(0, 4)]
    s1, s2, s3 = sigma
    t1 = 10.0 ** rng.uniform(0.0, 1.0) if s1 * s2 > 0 else -(10.0 ** rng.uniform(-1.0, 1.0))
    t2 = 10.0 ** rng.uniform(0.0, 1.0) if s2 * s3 > 0 else -(10.0 ** rng.uniform(-1.0, 1.0))
    real = sigma == (-1, -1, -1) and rng.random() < 0.2
    a = 0.0 if real else rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 1.0)
    t = 1.0
    if rng.random() < 0.8:
        t += rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -6.0)
    t1t2 = t1 * t2
    b = t1t2 * (1.0 - (t - 1.0) * (t - 1.0) - a * a / (t1t2 * t1t2)) - t1 - t2 + 1.0
    return chg.SCoords(t=t, t1=t1, t2=t2, sigma=sigma, alpha=a, beta=b)


def test_coordinates_at_the_ramification():
    rng = default_rng(2026)
    built = 0
    for _ in range(1000):
        T = call(chg.triple_from_coords, near_ramification_coords(rng))
        if T is None:
            continue
        built += 1
        call(chg.s_coords, T)
        call(chg.holonomy_dimension, T)
        call(chg.holonomy_samples, T, 1, 1e-2, rng)
        call(chg.rectangle_holonomy, T, 1e-2, 1e-2)
        call(holonomy.omega_commutator, T)
        call(holonomy.vertical_part, T, holonomy.b_commutator(T))
        call(chg.decompose_three_reflections, T.product())
    assert built > 500


def cli_point(rng, p: chg.Point):
    """The wire form of p, its representative scaled by 10^U(-12, 12) and
    its sign read from the vector; one in twenty goes out with a NaN or inf
    entry, one in forty with two entries, one in forty without its sign."""
    v = p.rep * 10.0 ** rng.uniform(-12.0, 12.0)
    sign = 1 if chg.self_product(v) >= 0 else -1
    u = rng.random()
    if u < 0.05:
        v[rng.integers(0, 3)] = rng.choice((math.nan, math.inf, -math.inf))
    d = {"rep": jsonio.encode_vector(v), "sign": sign}
    if 0.05 <= u < 0.075:
        d["rep"] = d["rep"][:2]
    elif 0.075 <= u < 0.1:
        del d["sign"]
    return d


def cli_calls(rng, tmp_path):
    """argv lists for every verb: their files hold the points of strongly
    regular triples, chart pentagons and random negative points, written
    by cli_point, and isometries with a NaN entry now and then."""
    T = random_strongly_regular_triple(rng)
    while True:
        chart = (-rng.uniform(0.3, 4.0), rng.uniform(1.3, 6.0), rng.uniform(1.2, 5.0))
        P = call(chg.pentagon_from_moduli, chart, chg.CubeRoot(1))
        if P is not None:
            break
    Q = P.apply(random_isometry(rng, 0.6))
    x, y = random_negative_point(rng), random_negative_point(rng)
    m = random_isometry(rng, rng.uniform(0.5, 4.0)).m.copy()
    if rng.random() < 0.1:
        m[rng.integers(0, 3), rng.integers(0, 3)] = math.nan
    files = {
        "tri": {"points": [cli_point(rng, p) for p in T.points]},
        "a": {"points": [cli_point(rng, p) for p in P.points]},
        "b": {"points": [cli_point(rng, p) for p in Q.points]},
        "x": cli_point(rng, x),
        "y": cli_point(rng, y),
        "iso": {"m": jsonio.encode_vector(m)},
        "keyless": {"pts": []},
    }
    if rng.random() < 0.1:
        files["a"]["points"].pop()
    path = {}
    for name, data in files.items():
        path[name] = str(tmp_path / f"{name}.json")
        with open(path[name], "w") as fh:
            json.dump(data, fh)
    s = str(rng.uniform(-3.0, 3.0))
    # P's own chart point, t off the surface one time in four
    t = chg.s_coords(P.triple()).t + (rng.uniform(-1.0, 1.0) if rng.random() < 0.25 else 0.0)
    moduli = ",".join(map(str, (*chart, t, rng.uniform(-1.0, 1.0))))
    return [
        ["invariants", "--points", path["tri"]],
        ["invariants", "--points", path["keyless"]],
        ["reflect", "--mirror", path["x"], "--point", path["y"]],
        ["bend", "--p1", path["x"], "--p2", path["y"], "--s", s, "--steps", "8"],
        ["bend", "--p1", path["x"], "--p2", path["tri"], "--steps", "0"],
        ["decompose", "--isometry", path["iso"]],
        ["pentagon", "new", "--delta", "1", "--p4", path["x"], "--p5", path["y"]],
        ["pentagon", "new", "--delta", "1", f"--moduli={moduli}"],
        ["pentagon", "verify", path["a"]],
        ["pentagon", "connect", path["a"], path["b"]],
        ["holonomy", "probe", "--triple", path["tri"], "--samples", "1"],
        ["fixture", "spherical-flip"],
    ]


def test_every_verb_exits_0_1_or_2(tmp_path, monkeypatch):
    # main builds its parser on each call, four fifths of a call's time
    # here; one parser serves every call, as parse_args keeps no state
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    rng = default_rng(2026)
    calls = 0
    for _ in range(100):
        for argv in cli_calls(rng, tmp_path):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 1, 2), (argv, out.getvalue())
            calls += 1
    assert calls == 1200
