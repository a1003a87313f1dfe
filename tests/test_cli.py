"""End-to-end CLI checks through main(argv)."""

import io
import json

import numpy as np
import pytest
from numpy.random import default_rng

from chgeom import (
    CubeRoot,
    bending,
    jsonio,
    pentagon_from_moduli,
    point,
    reflection,
    s_coords,
    tance,
)
from chgeom.cli import _pentagon_from_moduli_flag, main
from chgeom.errors import InadmissibleModuli
from chgeom.holonomy import holonomy_dimension, holonomy_samples
from chgeom.sampling import (
    random_isometry,
    random_negative_point,
    random_point,
    random_strongly_regular_triple,
)


@pytest.fixture(scope="module")
def tri():
    return random_strongly_regular_triple(default_rng(80))


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(jsonio.encode(obj)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


class TestFixture:
    def test_flip_values(self, capsys):
        code, out = run(capsys, "fixture", "spherical-flip")
        assert code == 0
        d = json.loads(out.out)
        by_pair = {tuple(r["pair"]): r for r in d["report"]}
        assert by_pair[("p2", "p3")]["tance"] == pytest.approx(81 / 64, abs=1e-12)
        assert by_pair[("p2", "p3")]["line_type"] == "hyperbolic"
        assert by_pair[("q2", "p3")]["tance"] == pytest.approx(9 / 16, abs=1e-12)
        assert by_pair[("q2", "p3")]["line_type"] == "spherical"
        assert by_pair[("p1", "p2")]["tance"] == pytest.approx(-9 / 16, abs=1e-12)
        assert d["z"] == 0.125

    def test_unknown_name(self, capsys):
        code, out = run(capsys, "fixture", "nonesuch")
        assert code == 2
        assert "usage error" in out.err

    def test_byte_stable(self, capsys):
        _, first = run(capsys, "fixture", "spherical-flip")
        _, second = run(capsys, "fixture", "spherical-flip")
        assert first.out == second.out

    def test_takes_no_tolerance(self, capsys):
        # the fixture is a frozen Gram, read at no tolerance
        with pytest.raises(SystemExit) as ex:
            main(["fixture", "spherical-flip", "--tol", "1e-9"])
        assert ex.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestInvariants:
    def test_matches_library(self, tmp_path, capsys, tri):
        code, out = run(capsys, "invariants", "--points", write(tmp_path, "t.json", tri))
        assert code == 0
        got = jsonio.decode_coords(json.loads(out.out))
        assert got == s_coords(tri)

    def test_points_from_stdin(self, capsys, monkeypatch, tri):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(jsonio.encode(tri))))
        code, out = run(capsys, "invariants", "--points", "-")
        assert code == 0
        assert jsonio.decode_coords(json.loads(out.out)) == s_coords(tri)

    def test_missing_file(self, capsys):
        code, out = run(capsys, "invariants", "--points", "/nonexistent.json")
        assert code == 2

    def test_point_file_names_the_missing_key(self, tmp_path, capsys):
        # a point file has "rep" and "sign" but no "points"
        p = write(tmp_path, "p.json", random_negative_point(default_rng(1)))
        code, out = run(capsys, "invariants", "--points", p)
        assert code == 2
        assert "usage error: missing key 'points'" in out.err

    def test_unknown_verb_usage_exit(self):
        with pytest.raises(SystemExit) as ex:
            main(["frobnicate"])
        assert ex.value.code == 2


class TestReflect:
    def test_matches_library(self, tmp_path, capsys, tri):
        m = write(tmp_path, "m.json", tri.p1)
        q = write(tmp_path, "q.json", tri.p2)
        code, out = run(capsys, "reflect", "--mirror", m, "--point", q)
        assert code == 0
        got = jsonio.decode_point(json.loads(out.out))
        want = reflection(tri.p1).apply(tri.p2)
        assert np.abs(got.rep - want.rep).max() <= 1e-12

    def test_nan_point_is_usage_error(self, tmp_path, capsys, tri):
        m = write(tmp_path, "m.json", tri.p1)
        d = jsonio.encode(tri.p2)
        d["rep"][1][1] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(d))
        code, out = run(capsys, "reflect", "--mirror", m, "--point", str(path))
        assert code == 2
        assert "non-finite" in out.err


class TestTolerance:
    @staticmethod
    def reflect_in_isotropic_mirror(tmp_path, capsys, tri, *extra):
        m = tmp_path / "iso.json"
        m.write_text(json.dumps({"rep": [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "sign": 1}))
        q = write(tmp_path, "q.json", tri.p2)
        return run(capsys, "reflect", "--mirror", str(m), "--point", q, *extra)

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_flag_is_usage_error(self, tmp_path, capsys, tri, tol):
        code, out = self.reflect_in_isotropic_mirror(tmp_path, capsys, tri, "--tol", tol)
        assert code == 2
        assert "tolerance must be finite and >= 0" in out.err

    def test_isotropic_mirror_is_domain_error(self, tmp_path, capsys, tri):
        code, out = self.reflect_in_isotropic_mirror(tmp_path, capsys, tri)
        assert code == 1
        assert "IsotropicVector" in out.err


class TestBend:
    def test_moved_pair_and_residual(self, tmp_path, capsys, tri):
        a = write(tmp_path, "a.json", tri.p1)
        b = write(tmp_path, "b.json", tri.p2)
        code, out = run(capsys, "bend", "--p1", a, "--p2", b, "--s", "0.6",
                        "--steps", "4000")
        assert code == 0
        d = json.loads(out.out)
        bnd = bending(tri.p1, tri.p2)
        assert d["kind"] == bnd.kind.value
        assert d["rate"] == pytest.approx(bnd.rate, rel=1e-12)
        moved = jsonio.decode_point(d["p2"])
        want = bnd.evaluate(0.6).apply(tri.p2)
        assert np.abs(moved.rep - want.rep).max() <= 1e-10
        assert d["follow_residual"] <= 1e-6

    def test_steps_zero_skips_check(self, tmp_path, capsys, tri):
        a = write(tmp_path, "a.json", tri.p1)
        b = write(tmp_path, "b.json", tri.p2)
        code, out = run(capsys, "bend", "--p1", a, "--p2", b, "--steps", "0")
        assert code == 0
        assert "follow_residual" not in json.loads(out.out)

    def test_negative_steps_is_a_usage_error(self, tmp_path, capsys, tri):
        a = write(tmp_path, "a.json", tri.p1)
        b = write(tmp_path, "b.json", tri.p2)
        with pytest.raises(SystemExit) as ex:
            main(["bend", "--p1", a, "--p2", b, "--steps", "-5"])
        assert ex.value.code == 2
        assert "--steps: must be at least 0, got -5" in capsys.readouterr().err

    @pytest.mark.parametrize("s", ["nan", "inf"])
    def test_non_finite_parameter_is_a_usage_error(self, tmp_path, capsys, tri, s):
        a = write(tmp_path, "a.json", tri.p1)
        b = write(tmp_path, "b.json", tri.p2)
        with pytest.raises(SystemExit) as ex:
            main(["bend", "--p1", a, "--p2", b, "--s", s, "--steps", "0"])
        assert ex.value.code == 2
        assert f"argument --s: invalid _finite value: '{s}'" in capsys.readouterr().err

    def test_equal_points_domain_error(self, tmp_path, capsys, tri):
        a = write(tmp_path, "a.json", tri.p1)
        code, out = run(capsys, "bend", "--p1", a, "--p2", a)
        assert code == 1
        assert "EqualPoints" in out.err

    def test_overflowing_parameter_domain_error(self, tmp_path, capsys, tri):
        a = write(tmp_path, "a.json", tri.p1)
        b = write(tmp_path, "b.json", tri.p2)
        code, out = run(capsys, "bend", "--p1", a, "--p2", b, "--s", "1e6", "--steps", "0")
        assert code == 1
        assert "BendingOverflow" in out.err

    def test_overflowing_euclidean_parameter_domain_error(self, tmp_path, capsys):
        # s^2 / 2 overflows the normal form: a domain error, not numpy's
        # non-finite norm read as a usage error
        a = write(tmp_path, "a.json", point([0.0, 1.0, 0.0]))
        b = write(tmp_path, "b.json", point([1.0, 1.0, 1.0]))
        code, out = run(capsys, "bend", "--p1", a, "--p2", b, "--s", "1e200", "--steps", "0")
        assert code == 1
        assert "BendingOverflow: bending exponent 1.000e+200 exceeds 6.321e+153" in out.err

    def test_default_steps_follow_a_hyperbolic_orbit(self, tmp_path, capsys):
        a = write(tmp_path, "p1.json", random_negative_point(default_rng(1)))
        b = write(tmp_path, "p2.json", random_negative_point(default_rng(2)))
        code, out = run(capsys, "bend", "--p1", a, "--p2", b)
        assert code == 0
        d = json.loads(out.out)
        assert d["kind"] == "hyperbolic"
        assert d["follow_residual"] <= 1e-6


class TestDecompose:
    def test_roundtrip(self, tmp_path, capsys, tri):
        f = write(tmp_path, "f.json", tri.product())
        code, out = run(capsys, "decompose", "--isometry", f)
        assert code == 0
        d = json.loads(out.out)
        assert d["residual"] <= 1e-8
        got = jsonio.decode_triple(d["triple"])
        scale = np.abs(tri.product().m).max()
        assert np.abs(got.product().m - tri.product().m).max() <= 1e-8 * scale

    def test_non_isometry_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": jsonio.encode_vector(2.0 * np.eye(3))}))
        code, out = run(capsys, "decompose", "--isometry", str(path))
        assert code == 2
        # e^{i pi/9} I preserves the form, and its determinant is e^{i pi/3}
        m = np.exp(1j * np.pi / 9.0) * np.eye(3)
        path.write_text(json.dumps({"m": jsonio.encode_vector(m)}))
        code, out = run(capsys, "decompose", "--isometry", str(path))
        assert code == 2
        assert "determinant" in out.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rapidity", [40.0, 60.0])
    def test_far_boost_is_a_domain_error(self, tmp_path, capsys, rapidity):
        # a valid isometry (|F| = 5.7e25 at rapidity 60) that no sign
        # pattern decomposes is a domain error, not numpy's "Eigenvalues
        # did not converge" on a NaN (a usage error, exit 2)
        c, s = np.cosh(rapidity), np.sinh(rapidity)
        m = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, c]], dtype=complex)
        path = tmp_path / "boost.json"
        path.write_text(json.dumps({"m": jsonio.encode_vector(m)}))
        code, out = run(capsys, "decompose", "--isometry", str(path))
        assert code == 1
        assert "NotConjugate" in out.err
        assert "RuntimeWarning" not in out.err


class TestPentagonVerbs:
    T_SHEET = 1.9380206887377254  # positive-sheet t over moduli (-2, 3, 2)

    def test_new_from_moduli_then_verify(self, tmp_path, capsys):
        out_path = tmp_path / "p.json"
        code, _ = run(capsys, "pentagon", "new", "--delta", "1",
                      f"--moduli=-2.0,3.0,2.0,{self.T_SHEET},0.25",
                      "--out", str(out_path))
        assert code == 0
        code, out = run(capsys, "pentagon", "verify", str(out_path))
        assert code == 0
        d = json.loads(out.out)
        assert d["delta"]["k"] == 1
        assert d["residual"] <= 1e-9
        assert d["real"] is False

    def test_new_negative_sheet(self, tmp_path, capsys):
        code, out = run(capsys, "pentagon", "new", "--delta", "1",
                        f"--moduli=-2.0,3.0,2.0,{2.0 - self.T_SHEET},0.0")
        assert code == 0
        P = jsonio.decode_pentagon(json.loads(out.out))
        assert s_coords(P.triple()).t < 1.0

    def test_new_off_surface_t(self, capsys):
        code, out = run(capsys, "pentagon", "new", "--delta", "1",
                        "--moduli=-2.0,3.0,2.0,1.8,0.0")
        assert code == 1
        assert "InadmissibleModuli" in out.err

    def test_off_surface_t_carries_distance_and_bound(self):
        with pytest.raises(InadmissibleModuli) as info:
            _pentagon_from_moduli_flag((-2.0, 3.0, 2.0, 1.8, 0.0), CubeRoot(1), 1e-9)
        assert info.value.value == pytest.approx(self.T_SHEET - 1.8, rel=1e-9)
        assert info.value.bound == pytest.approx(1.8e-6, rel=1e-12)

    @pytest.mark.parametrize("moduli", ["-1e300,4.0,2.0,2.0,0.0", "-2.0,1e300,2.0,2.0,0.0"])
    def test_huge_modulus_is_a_domain_error(self, capsys, moduli):
        # the surface relation squares t1 t2 = -4e300 without overflowing;
        # the moduli are admissible, but too far out to realize
        code, out = run(capsys, "pentagon", "new", "--delta", "1", f"--moduli={moduli}")
        assert code == 1
        assert "Traceback" not in out.err
        assert "InadmissibleCoords" in out.err

    def test_verify_nan_coordinate_is_usage_error(self, tmp_path, capsys):
        d = jsonio.encode(pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(1)))
        d["points"][2]["rep"][0][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(d))
        code, out = run(capsys, "pentagon", "verify", str(path))
        assert code == 2
        assert "non-finite" in out.err

    def test_verify_four_points_is_usage_error(self, tmp_path, capsys):
        d = jsonio.encode(pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(1)))
        d["points"].pop()
        path = tmp_path / "four.json"
        path.write_text(json.dumps(d))
        code, out = run(capsys, "pentagon", "verify", str(path))
        assert code == 2
        assert "expected 5 points, got 4" in out.err

    def test_verify_wrong_stored_delta_is_usage_error(self, tmp_path, capsys):
        # verify decodes as connect does, so both reject the file
        P = pentagon_from_moduli((-1.5, 3.0, 2.5), CubeRoot(1), s5=0.3)
        d = jsonio.encode(P)
        d["delta"] = {"k": 2}
        path = tmp_path / "delta.json"
        path.write_text(json.dumps(d))
        for argv in (["verify", str(path)], ["connect", str(path), str(path)]):
            code, out = run(capsys, "pentagon", *argv)
            assert code == 2
            assert "stored delta disagrees with the five points" in out.err

    def test_new_from_points(self, tmp_path, capsys):
        rng = default_rng(81)
        a = write(tmp_path, "p4.json", random_negative_point(rng))
        b = write(tmp_path, "p5.json", random_negative_point(rng))
        code, out = run(capsys, "pentagon", "new", "--delta", "2",
                        "--p4", a, "--p5", b)
        assert code == 0
        P = jsonio.decode_pentagon(json.loads(out.out))
        assert P.delta == CubeRoot(2)

    def test_new_argument_conflicts(self, tmp_path, capsys, tri):
        a = write(tmp_path, "x.json", tri.p1)
        code, _ = run(capsys, "pentagon", "new", "--delta", "1",
                      "--p4", a, "--p5", a, "--moduli=-2,3,2,1.9,0")
        assert code == 2
        code, _ = run(capsys, "pentagon", "new", "--delta", "1", "--p4", a)
        assert code == 2
        with pytest.raises(SystemExit) as ex:
            main(["pentagon", "new", "--delta", "1", "--moduli=-2,3,2,1.9"])
        assert ex.value.code == 2
        assert "argument --moduli: needs t1,t2,t4,t,s5; got 4 values" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("place", range(5))
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_moduli_is_a_usage_error(self, capsys, place, bad):
        # moduli that build a pentagon (see the CI round trip) with one
        # entry made non-finite
        moduli = ["-2.0", "4.0", "2.0", "2.0187752", "0.0"]
        moduli[place] = bad
        arg = "--moduli=" + ",".join(moduli)
        with pytest.raises(SystemExit) as ex:
            main(["pentagon", "new", "--delta", "1", arg])
        assert ex.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --moduli: invalid _moduli value: '{arg[9:]}'" in err
        assert "Warning" not in err

    def test_verify_rejects_broken_relation(self, tmp_path, capsys):
        P = pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(1))
        d = jsonio.encode(P)
        d["points"][2]["rep"][0][0] += 1e-5
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(d))
        code, out = run(capsys, "pentagon", "verify", str(path))
        assert code == 1
        assert "NotAPentagon" in out.err
        # a loose tolerance accepts the perturbed relation
        code, _ = run(capsys, "pentagon", "verify", str(path), "--tol", "1e-2")
        assert code == 0

    def test_connect(self, tmp_path, capsys):
        A = pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(1), s5=0.3)
        B = pentagon_from_moduli((-1.5, 2.2, 3.5), CubeRoot(1), s5=-0.5)
        a = write(tmp_path, "a.json", A)
        b = write(tmp_path, "b.json", B)
        code, out = run(capsys, "pentagon", "connect", a, b)
        assert code == 0
        d = json.loads(out.out)
        assert len(d["moves"]) <= 6
        jsonio.decode_isometry(d["conjugator"])

    def test_connect_same_file(self, tmp_path, capsys):
        A = pentagon_from_moduli((-2.0, 3.0, 2.0), CubeRoot(2))
        a = write(tmp_path, "a.json", A)
        code, out = run(capsys, "pentagon", "connect", a, a)
        assert code == 0
        assert json.loads(out.out)["moves"] == []

    def test_connect_a_moved_pair_bends_p4_and_p5(self, tmp_path, capsys):
        # the moduli of the round trip above against a moved chart
        # pentagon: the program ends on the pair 45
        code, out = run(capsys, "pentagon", "new", "--delta", "1",
                        "--moduli=-2.0,4.0,2.0,2.0187752,0.0")
        assert code == 0
        a = tmp_path / "a.json"
        a.write_text(out.out)
        P = pentagon_from_moduli((-1.5, 3.0, 2.5), CubeRoot(1), s5=0.3)
        b = write(tmp_path, "b.json", P.apply(random_isometry(default_rng(5), 0.6)))
        code, out = run(capsys, "pentagon", "connect", str(a), b)
        assert code == 0
        assert "45" in [m["pair"] for m in json.loads(out.out)["moves"]]

    def test_connect_a_pair_that_needs_a_lift(self, tmp_path, capsys):
        # pair 12 raises t2 before the 23 leg can reach its t1
        files = []
        for name, moduli in (("a", "-3.5,1.5,4.0,1.1529194354602996,0.0"),
                             ("b", "-0.9,5.4,3.3,2.176423684656278,0.0")):
            code, out = run(capsys, "pentagon", "new", "--delta", "1", f"--moduli={moduli}")
            assert code == 0
            files.append(tmp_path / f"{name}.json")
            files[-1].write_text(out.out)
        code, out = run(capsys, "pentagon", "connect", *map(str, files))
        assert code == 0
        pairs = [m["pair"] for m in json.loads(out.out)["moves"]]
        assert pairs[:3] == ["12", "23", "12"]

    @staticmethod
    def signed_pentagon(tmp_path, capsys, name, p4_seed, p5_seed, p5_sign):
        """A pentagon file built by `pentagon new --p4 --p5` on a positive p4
        and a p5 of the given sign, drawn by random_point."""
        p4 = write(tmp_path, f"{name}4.json", random_point(default_rng(p4_seed), sign=1))
        p5 = write(tmp_path, f"{name}5.json", random_point(default_rng(p5_seed), sign=p5_sign))
        code, out = run(capsys, "pentagon", "new", "--delta", "1", "--p4", p4, "--p5", p5)
        assert code == 0
        path = tmp_path / f"{name}.json"
        path.write_text(out.out)
        return str(path)

    def test_connect_mixed_sign_pairs(self, tmp_path, capsys):
        # p4 positive and p5 negative on both, so ta(p4, p5) <= 0 and the
        # 34 legs slide both pentagons to the level of larger modulus
        a = self.signed_pentagon(tmp_path, capsys, "a", 1, 2, -1)
        b = self.signed_pentagon(tmp_path, capsys, "b", 3, 4, -1)
        code, out = run(capsys, "pentagon", "connect", a, b)
        assert code == 0
        jsonio.decode_isometry(json.loads(out.out)["conjugator"])

    def test_connect_refuses_pairs_of_other_signs(self, tmp_path, capsys):
        # no bend and no isometry changes a sign: a (+, +) pair against a
        # (+, -) one is refused before any move
        a = self.signed_pentagon(tmp_path, capsys, "a", 1, 2, -1)
        b = self.signed_pentagon(tmp_path, capsys, "b", 1, 7, 1)
        code, out = run(capsys, "pentagon", "connect", a, b)
        assert code == 1
        assert "IncompatibleInvariants" in out.err

    def test_connect_different_delta(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", pentagon_from_moduli((-2, 3, 2), CubeRoot(1)))
        b = write(tmp_path, "b.json", pentagon_from_moduli((-2, 3, 2), CubeRoot(2)))
        code, out = run(capsys, "pentagon", "connect", a, b)
        assert code == 1
        assert "DifferentDelta" in out.err


class TestHolonomyProbe:
    def test_probe_generic_triple(self, tmp_path, capsys, tri):
        t = write(tmp_path, "t.json", tri)
        csv_path = tmp_path / "rows.csv"
        code, out = run(capsys, "holonomy", "probe", "--triple", t,
                        "--samples", "6", "--seed", "3", "--out", str(csv_path))
        assert code == 0
        d = json.loads(out.out)
        assert d["dimension"] == 2
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "c1,c2"
        assert len(lines) == 7
        assert all(len(line.split(",")) == 2 for line in lines[1:])

    def test_probe_real_triple(self, tmp_path, capsys):
        # a real strongly regular triple: its curvature spans one direction
        T = random_strongly_regular_triple(default_rng(1), real=True)
        t = write(tmp_path, "t.json", T)
        code, out = run(capsys, "holonomy", "probe", "--triple", t, "--samples", "2")
        assert code == 0
        assert '"dimension": 1' in out.out

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_is_a_usage_error(self, tmp_path, capsys, tri, samples):
        t = write(tmp_path, "t.json", tri)
        with pytest.raises(SystemExit) as ex:
            main(["holonomy", "probe", "--triple", t, "--samples", samples])
        assert ex.value.code == 2
        err = capsys.readouterr().err
        assert f"--samples: must be at least 1, got {samples}" in err

    @pytest.mark.parametrize("ds", ["nan", "inf"])
    def test_non_finite_side_is_a_usage_error(self, tmp_path, capsys, tri, ds):
        t = write(tmp_path, "t.json", tri)
        with pytest.raises(SystemExit) as ex:
            main(["holonomy", "probe", "--triple", t, "--ds", ds])
        assert ex.value.code == 2
        assert f"argument --ds: invalid _finite value: '{ds}'" in capsys.readouterr().err

    def test_sides_past_a_pairs_sign_halve(self, tmp_path, capsys):
        # t1 = -1.33 on the pattern (1, -1, -1): at --ds 5 the first
        # rectangles' t1 sides cross 0 and halve until they fit
        t = write(tmp_path, "t.json", random_strongly_regular_triple(default_rng(1)))
        code, out = run(capsys, "holonomy", "probe", "--triple", t,
                        "--samples", "2", "--ds", "5")
        assert code == 0
        assert '"dimension": 2' in out.out

    @pytest.mark.parametrize("ds", ["1e3", "1e200"])
    def test_rectangle_that_never_fits_leaves_the_region(self, tmp_path, capsys, ds):
        t = write(tmp_path, "t.json", random_strongly_regular_triple(default_rng(1)))
        code, out = run(capsys, "holonomy", "probe", "--triple", t,
                        "--samples", "2", "--ds", ds)
        assert code == 1
        assert "LeavesAdmissibleRegion" in out.err

    def test_probe_deterministic(self, tmp_path, capsys, tri):
        t = write(tmp_path, "t.json", tri)
        code_a, a = run(capsys, "holonomy", "probe", "--triple", t,
                        "--samples", "4", "--seed", "9")
        code_b, b = run(capsys, "holonomy", "probe", "--triple", t,
                        "--samples", "4", "--seed", "9")
        assert code_a == code_b == 0
        assert a.out == b.out

    @pytest.mark.parametrize("triple_seed", [80, 21])
    def test_probe_matches_library(self, tmp_path, capsys, triple_seed):
        # the probe's rank is the library's curvature-span rank; its
        # singular values are those of the loop rows it prints
        T = random_strongly_regular_triple(default_rng(triple_seed))
        t = write(tmp_path, "t.json", T)
        code, out = run(capsys, "holonomy", "probe", "--triple", t, "--samples", "6",
                        "--seed", "9", "--out", str(tmp_path / "rows.csv"))
        assert code == 0
        d = json.loads(out.out)
        rows = holonomy_samples(T, 6, rng=default_rng(9))
        assert d["dimension"] == holonomy_dimension(T, 6, rng=default_rng(9))
        assert d["singular_values"] == [
            float(s) for s in np.linalg.svd(rows, compute_uv=False)
        ]

    def test_probe_moved_triple(self, tmp_path, capsys):
        # at its own position this triple's product reads as non-regular
        # (a one-dimensional centralizer); the loops run at the canonical
        # triple instead
        T = random_strongly_regular_triple(default_rng(183))
        M = T.apply(random_isometry(default_rng(183), 2.0))
        t = write(tmp_path, "t.json", M)
        code, out = run(capsys, "holonomy", "probe", "--triple", t, "--samples", "6",
                        "--seed", "9", "--out", str(tmp_path / "rows.csv"))
        assert code == 0
        d = json.loads(out.out)
        assert d["dimension"] == 2
        # decoding re-canonicalises a far-out representative's last bits
        decoded = jsonio.decode_triple(json.loads((tmp_path / "t.json").read_text()))
        rows = holonomy_samples(decoded, 6, rng=default_rng(9), tol=1e-9)
        sv = np.linalg.svd(rows, compute_uv=False)
        assert d["singular_values"] == [float(s) for s in sv]
        unmoved = holonomy_samples(T, 6, rng=default_rng(9), tol=1e-9)
        sv_unmoved = np.linalg.svd(unmoved, compute_uv=False)
        assert np.abs(sv - sv_unmoved).max() <= 1e-6 * sv_unmoved[0]


class TestOutFlag:
    def test_out_writes_file(self, tmp_path, capsys, tri):
        t = write(tmp_path, "t.json", tri)
        out_path = tmp_path / "inv.json"
        code, out = run(capsys, "invariants", "--points", t, "--out", str(out_path))
        assert code == 0
        assert out.out == ""
        assert jsonio.decode_coords(json.loads(out_path.read_text())) == s_coords(tri)
