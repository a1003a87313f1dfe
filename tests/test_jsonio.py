"""Wire-format round trips and their failure modes."""

import json

import numpy as np
import pytest
from numpy.random import default_rng

from chgeom import (
    CubeRoot,
    Move,
    SCoords,
    gram,
    pentagon_from_moduli,
    point,
    triple,
)
from chgeom import jsonio
from chgeom.errors import NotAPentagon
from chgeom.sampling import (
    random_isometry,
    random_point,
    random_strongly_regular_triple,
)


def wire(obj):
    """Encode, serialize, parse: what a file on disk would hold."""
    return json.loads(json.dumps(jsonio.encode(obj)))


class TestScalars:
    def test_complex_pair(self):
        z = 1.25 - 3.5j
        assert jsonio.encode_vector([z]) == [[1.25, -3.5]]
        assert jsonio.decode_vector([[1.25, -3.5]]).tolist() == [z]

    def test_vector_round_trip(self):
        v = np.array([1.0 + 2.0j, -0.5j, 3.0])
        got = jsonio.decode_vector(json.loads(json.dumps(jsonio.encode_vector(v))))
        assert np.array_equal(got, v)


class TestPoints:
    def test_round_trip_is_exact(self):
        rng = default_rng(70)
        for _ in range(20):
            p = random_point(rng)
            q = jsonio.decode_point(wire(p))
            assert np.array_equal(q.rep, p.rep)
            assert q.sign == p.sign

    def test_stored_bits_are_kept_as_the_numpy_test_kept_them(self):
        # the keep-the-stored-bits test reads Python floats; it must keep or
        # replace the stored vector exactly where the test written out here
        # in numpy does, on stored vectors from 1e-15 to 1e-9 off canonical
        rng = default_rng(71)
        kept = 0
        for _ in range(1500):
            p = random_point(rng)
            noise = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            stored = p.rep * (1.0 + noise * 10.0 ** rng.uniform(-15.0, -9.0))
            data = {"rep": jsonio.encode_vector(stored), "sign": p.sign}
            v = jsonio.decode_vector(data["rep"])
            q = point(v)
            keep = float(np.abs(q.rep - v).max()) <= 1e-12 * float(np.abs(v).max())
            got = jsonio.decode_point(data)
            assert got.rep.tobytes() == (v if keep else q.rep).tobytes()
            kept += keep
        assert 300 < kept < 1200

    def test_vectors_name_a_non_finite_part(self):
        for bad in ([[1.0, 0.0], [float("nan"), 0.0]], [[1.0, float("inf")]]):
            with pytest.raises(ValueError, match="non-finite number"):
                jsonio.decode_vector(bad)
        with pytest.raises(ValueError):
            jsonio.decode_vector([[1.0, 0.0, 2.0]])

    def test_sign_mismatch_rejected(self):
        d = wire(point([0.0, 0.0, 1.0]))
        d["sign"] = 1
        with pytest.raises(ValueError):
            jsonio.decode_point(d)


class TestMatrices:
    def test_gram_round_trip(self):
        rng = default_rng(71)
        T = random_strongly_regular_triple(rng)
        G = gram(T.points)
        got = jsonio.decode_gram(wire(G))
        assert got.n == 3
        assert np.array_equal(got.m, G.m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gram_rejects_non_finite_entries(self, bad):
        d = wire(gram(random_strongly_regular_triple(default_rng(71)).points))
        d["entries"][4][1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.decode_gram(d)

    def test_gram_entry_count(self):
        d = {"n": 3, "entries": [[1.0, 0.0]] * 8}
        with pytest.raises(ValueError):
            jsonio.decode_gram(d)

    def test_isometry_round_trip(self):
        g = random_isometry(default_rng(72))
        got = jsonio.decode_isometry(wire(g))
        assert np.array_equal(got.m, g.m)

    def test_isometry_entry_count(self):
        d = {"m": jsonio.encode_vector(np.eye(3).ravel()[:8])}
        with pytest.raises(ValueError, match="expected 9 entries, got 8"):
            jsonio.decode_isometry(d)

    def test_isometry_must_preserve_form(self):
        d = {"m": jsonio.encode_vector(2.0 * np.eye(3))}
        with pytest.raises(ValueError):
            jsonio.decode_isometry(d)


class TestSmallRecords:
    def test_cube_root(self):
        assert jsonio.decode_cube_root(wire(CubeRoot(2))) == CubeRoot(2)
        with pytest.raises(ValueError):
            jsonio.decode_cube_root({"k": 3})

    def test_cube_root_index_must_be_an_integer(self):
        with pytest.raises(ValueError, match="1.5"):
            jsonio.decode_cube_root({"k": 1.5})

    def test_coords(self):
        c = SCoords(t=1.5, t1=-2.0, t2=3.0, sigma=(1, -1, -1), alpha=0.7, beta=-0.6)
        assert jsonio.decode_coords(wire(c)) == c
        d = wire(c)
        d["sigma"] = d["sigma"][:2]
        with pytest.raises(ValueError, match="three entries"):
            jsonio.decode_coords(d)

    @pytest.mark.parametrize("key, bad", [("t", np.nan), ("alpha", np.inf)])
    def test_coords_reject_non_finite_numbers(self, key, bad):
        c = SCoords(t=1.5, t1=-2.0, t2=3.0, sigma=(1, -1, -1), alpha=0.7, beta=-0.6)
        d = wire(c)
        d[key] = bad
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.decode_coords(d)

    def test_coords_reject_a_sign_other_than_plus_minus_one(self):
        c = SCoords(t=1.5, t1=-2.0, t2=3.0, sigma=(1, -1, -1), alpha=0.7, beta=-0.6)
        d = wire(c)
        d["sigma"] = [5, -1, -1]
        with pytest.raises(ValueError, match="got 5"):
            jsonio.decode_coords(d)

    def test_moves(self):
        prog = [Move("12", 0.5), Move("23", -1.25)]
        assert jsonio.decode_moves(wire(prog)) == prog
        assert jsonio.decode_moves([]) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_moves_reject_a_non_finite_parameter(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.decode_moves([{"pair": "12", "s": bad}])

    def test_moves_reject_an_unknown_pair(self):
        with pytest.raises(ValueError, match="'99'"):
            jsonio.decode_moves([{"pair": "99", "s": 0.5}])


class TestCompositeObjects:
    def test_triple(self):
        T = random_strongly_regular_triple(default_rng(74))
        got = jsonio.decode_triple(wire(T))
        for a, b in zip(got.points, T.points):
            assert np.array_equal(a.rep, b.rep)
        with pytest.raises(ValueError):
            jsonio.decode_triple({"points": [jsonio.encode(T.p1)] * 2})
        with pytest.raises(ValueError, match="expected 3 points, got 4"):
            jsonio.decode_triple({"points": wire(T)["points"] + [wire(T.p1)]})

    def test_pentagon(self):
        P = pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(1))
        got = jsonio.decode_pentagon(wire(P))
        assert got.delta == P.delta
        for a, b in zip(got.points, P.points):
            assert np.array_equal(a.rep, b.rep)
        with pytest.raises(ValueError, match="expected 5 points, got 4"):
            jsonio.decode_pentagon({"points": wire(P)["points"][:4]})

    def test_pentagon_delta_mismatch(self):
        P = pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(1))
        d = wire(P)
        d["delta"]["k"] = 2
        with pytest.raises(ValueError):
            jsonio.decode_pentagon(d)

    def test_pentagon_relation_tolerance(self):
        P = pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(1))
        d = wire(P)
        d["points"][2]["rep"][0][0] += 1e-5
        with pytest.raises(NotAPentagon):
            jsonio.decode_pentagon(d)
        assert jsonio.decode_pentagon(d, tol=1e-2).delta == P.delta

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            jsonio.encode(object())


def test_dumps_is_deterministic():
    T = random_strongly_regular_triple(default_rng(75))
    a = jsonio.dumps(jsonio.encode(T))
    b = jsonio.dumps(jsonio.encode(jsonio.decode_triple(json.loads(a))))
    assert a == b
