"""Command-line front end: construct, verify, bend, decompose, probe.

Every verb reads and writes the JSON wire formats of `jsonio`; the
`holonomy probe` verb additionally emits CSV sample rows.  Numeric JSON
output round-trips exactly (shortest-repr floats); CSV cells carry 17
significant digits.  Exit status is 0 on success, 1 on a domain error
(any GeometryError, reported with its class name), 2 on a usage error.

The default tolerance is the library's, core.DEFAULT_TOL, overridable per
call with --tol or globally with the environment variable CHG_TOL; it must
be finite and >= 0.  `pentagon verify` defaults to the pentagon relation
tolerance, pentagons.RELATION_TOL, instead; `fixture` takes no tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import jsonio
from .core import DEFAULT_TOL, Gram, line_type, point, realize_gram, tance
from .errors import GeometryError, InadmissibleModuli, _require
from .holonomy import holonomy_dimension, holonomy_samples
from .isometry import CubeRoot, reflection
from .paths import bending, follow_path, path_sample
from .pentagons import (
    RELATION_TOL,
    build_pentagon,
    connect_pentagons,
    is_real_pentagon,
    pentagon_from_moduli,
)
from .sampling import default_rng
from .triples import _sheet_of, decompose_three_reflections, s_coords

FIXTURE_NAMES = ("spherical-flip",)

# Null pair v1, v2 and a positive p3 with <v1,p3> = 1, <v2,p3> = z = 1/8:
# bending the flip pair past this z turns the line of (q2, p3) spherical.
FLIP_Z = 0.125
FLIP_GRAM = np.array(
    [
        [0.0, 0.5, 1.0],
        [0.5, 0.0, FLIP_Z],
        [1.0, FLIP_Z, 1.0],
    ]
)


def _load(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _tol(args, fallback: float = DEFAULT_TOL) -> float:
    """--tol, else CHG_TOL, else `fallback`; ValueError unless finite and >= 0
    (a NaN tolerance would fail every `<= tol` test)."""
    tol = args.tol if args.tol is not None else float(os.environ.get("CHG_TOL", fallback))
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    return tol


def _render(data) -> str:
    return jsonio.dumps(data) + "\n"


def _csv_rows(samples) -> str:
    lines = ["c1,c2"]
    for row in samples:
        lines.append(",".join("%.17g" % x for x in row))
    return "\n".join(lines) + "\n"


def cmd_invariants(args) -> str:
    tol = _tol(args)
    T = jsonio.decode_triple(_load(args.points), tol)
    return _render(jsonio.encode(s_coords(T, tol)))


def cmd_reflect(args) -> str:
    tol = _tol(args)
    mirror = jsonio.decode_point(_load(args.mirror), tol)
    p = jsonio.decode_point(_load(args.point), tol)
    return _render(jsonio.encode(reflection(mirror).apply(p, tol)))


def cmd_bend(args) -> str:
    tol = _tol(args)
    p1 = jsonio.decode_point(_load(args.p1), tol)
    p2 = jsonio.decode_point(_load(args.p2), tol)
    b = bending(p1, p2, tol)
    g = b.evaluate(args.s)
    moved1, moved2 = g.apply(p1, tol), g.apply(p2, tol)
    out = {
        "kind": b.kind.value,
        "rate": b.rate,
        "isometry": jsonio.encode(g),
        "p1": jsonio.encode(moved1),
        "p2": jsonio.encode(moved2),
    }
    if args.steps > 0:
        # Re-derive the endpoint through the path integrator: transport
        # R(p1) along the sampled orbit and compare at the far end.
        params = np.linspace(0.0, args.s, args.steps + 1)
        orbit = path_sample([b.evaluate(u).apply(p1, tol) for u in params], params)
        F = follow_path(orbit)
        lhs = reflection(moved1).m
        rhs = (F @ reflection(p1) @ F.inv()).m
        out["follow_residual"] = float(np.abs(lhs - rhs).max())
    return _render(out)


def cmd_decompose(args) -> str:
    tol = _tol(args)
    F = jsonio.decode_isometry(_load(args.isometry), tol)
    T = decompose_three_reflections(F, tol)
    resid = float(np.abs(T.product().m - F.m).max())
    scale = max(1.0, float(np.abs(F.m).max()))
    return _render({"triple": jsonio.encode(T), "residual": resid / scale})


def _pentagon_from_moduli_flag(moduli, delta: CubeRoot, tol: float):
    """The pentagon at --moduli's five numbers t1, t2, t4, t, s5."""
    t1, t2, t4, t, s5 = moduli
    P = pentagon_from_moduli((t1, t2, t4), delta, s5=s5, sheet=_sheet_of(t), tol=tol)
    got = s_coords(P.triple(), tol).t
    bound = 1e-6 * max(1.0, abs(t))
    _require(abs(got - t), bound, InadmissibleModuli, "distance of t from the surface")
    return P


def cmd_pentagon_new(args) -> str:
    tol = _tol(args)
    delta = CubeRoot(args.delta)
    if args.moduli is not None:
        if args.p4 is not None or args.p5 is not None:
            raise ValueError("give either --moduli or --p4/--p5, not both")
        P = _pentagon_from_moduli_flag(args.moduli, delta, tol)
    else:
        if args.p4 is None or args.p5 is None:
            raise ValueError("need both --p4 and --p5 (or --moduli)")
        p4 = jsonio.decode_point(_load(args.p4), tol)
        p5 = jsonio.decode_point(_load(args.p5), tol)
        P = build_pentagon(delta, p4, p5, tol)
    return _render(jsonio.encode(P))


def cmd_pentagon_verify(args) -> str:
    # The relation tolerance defaults to the one pentagons are built and
    # decoded at, so freshly built pentagons re-verify without flags.
    P = jsonio.decode_pentagon(_load(args.file), _tol(args, fallback=RELATION_TOL))
    resid = float(np.abs(P.product().m - P.delta.matrix()).max())
    return _render(
        {
            "delta": jsonio.encode(P.delta),
            "residual": resid,
            "real": is_real_pentagon(P),
        }
    )


def cmd_pentagon_connect(args) -> str:
    tol = _tol(args)
    A = jsonio.decode_pentagon(_load(args.a))
    B = jsonio.decode_pentagon(_load(args.b))
    moves, g = connect_pentagons(A, B, tol)
    return _render({"moves": jsonio.encode(moves), "conjugator": jsonio.encode(g)})


def cmd_holonomy_probe(args) -> str:
    tol = _tol(args)
    T = jsonio.decode_triple(_load(args.triple), tol)
    # the loop rows are the independent check on the library's rank
    samples = holonomy_samples(
        T, args.samples, ds=args.ds, rng=default_rng(args.seed), tol=tol
    )
    dim = holonomy_dimension(T, ds=args.ds, tol=tol)
    sv = np.linalg.svd(samples, compute_uv=False)
    verdict = _render(
        {
            "dimension": dim,
            "singular_values": [float(s) for s in sv],
            "samples": int(args.samples),
            "ds": args.ds,
        }
    )
    csv = _csv_rows(samples)
    if args.out is not None:
        # CSV rows land in the file; the verdict stays on stdout.
        with open(args.out, "w") as fh:
            fh.write(csv)
        args.out = None
        return verdict
    return csv + verdict


def cmd_fixture(args) -> str:
    if args.name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {args.name!r} (try 'spherical-flip')")
    v = realize_gram(FLIP_GRAM)
    named = {
        "p1": point(2.0 * v[0] - 0.5 * v[1]),
        "p2": point(v[0] + v[1]),
        "q1": point(v[0] - v[1]),
        "q2": point(0.5 * v[0] + 2.0 * v[1]),
        "p3": point(v[2]),
    }
    report = []
    for a, b in (("p1", "p2"), ("p2", "p3"), ("q1", "q2"), ("q2", "p3")):
        pa, pb = named[a], named[b]
        report.append(
            {
                "pair": [a, b],
                "tance": tance(pa, pb),
                "line_type": line_type(pa, pb).value,
            }
        )
    out = {
        "z": FLIP_Z,
        "gram": jsonio.encode(Gram(m=FLIP_GRAM.astype(complex))),
        "points": {name: jsonio.encode(p) for name, p in named.items()},
        "report": report,
    }
    return _render(out)


def _count(least: int):
    """An argparse type: an integer of at least `least`.  argparse names
    the flag in the error and exits with status 2."""

    def parse(text: str) -> int:
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n

    return parse


def _moduli(text: str) -> list[float]:
    """An argparse type: five finite numbers t1,t2,t4,t,s5.  argparse names
    the flag in the error and exits with status 2."""
    parts = [jsonio._finite(x) for x in text.split(",")]
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(f"needs t1,t2,t4,t,s5; got {len(parts)} values")
    return parts


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tol",
        type=float,
        default=None,
        help=f"tolerance (default: CHG_TOL or {DEFAULT_TOL})",
    )
    p.add_argument("--out", default=None, help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="chg", description="complex hyperbolic plane toolkit"
    )
    sub = top.add_subparsers(dest="verb", required=True, metavar="verb")

    p = sub.add_parser("invariants", help="surface coordinates of a triple")
    p.add_argument("--points", required=True, help="triple JSON file ('-' for stdin)")
    _add_common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("reflect", help="reflect a point in a mirror point")
    p.add_argument("--mirror", required=True, help="mirror point JSON file")
    p.add_argument("--point", required=True, help="point JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_reflect)

    p = sub.add_parser("bend", help="bend a pair of points by a parameter")
    p.add_argument("--p1", required=True, help="first point JSON file")
    p.add_argument("--p2", required=True, help="second point JSON file")
    p.add_argument("--s", type=jsonio._finite, default=1.0, help="bending parameter")
    p.add_argument(
        "--steps",
        type=_count(0),
        default=10000,
        help="integrator steps for the follow-up check (0 skips it)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_bend)

    p = sub.add_parser("decompose", help="write an isometry as three reflections")
    p.add_argument("--isometry", required=True, help="isometry JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    pent = sub.add_parser("pentagon", help="pentagon construction and connectivity")
    psub = pent.add_subparsers(dest="action", required=True, metavar="action")

    p = psub.add_parser("new", help="build a pentagon")
    p.add_argument("--delta", type=int, required=True, choices=(0, 1, 2))
    p.add_argument("--p4", default=None, help="fourth point JSON file")
    p.add_argument("--p5", default=None, help="fifth point JSON file")
    p.add_argument(
        "--moduli",
        type=_moduli,
        default=None,
        help="t1,t2,t4,t,s5 (moduli chart; delta must be 1 or 2)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_pentagon_new)

    p = psub.add_parser("verify", help="check the defining relation")
    p.add_argument("file", help="pentagon JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_pentagon_verify)

    p = psub.add_parser("connect", help="bending program from one pentagon to another")
    p.add_argument("a", help="source pentagon JSON file")
    p.add_argument("b", help="target pentagon JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_pentagon_connect)

    hol = sub.add_parser("holonomy", help="holonomy probes around bending loops")
    hsub = hol.add_subparsers(dest="action", required=True, metavar="action")

    probe_doc = (
        "sample loop holonomy logs at the canonical triple with the input's "
        "S-coordinates (CSV columns c1,c2: coordinates in the centralizer basis "
        "of its product, so moving the input changes them only by roundoff) and "
        "report the rank; loops do not walk back, rectangles halve until they fit"
    )
    p = hsub.add_parser("probe", help=probe_doc, description=probe_doc)
    p.add_argument("--triple", required=True, help="triple JSON file")
    p.add_argument("--samples", type=_count(1), default=8, help="number of loops")
    p.add_argument("--ds", type=jsonio._finite, default=1e-2, help="rectangle side scale")
    p.add_argument("--seed", type=int, default=0, help="loop generator seed")
    _add_common(p)
    p.set_defaults(func=cmd_holonomy_probe)

    p = sub.add_parser("fixture", help="emit a frozen example configuration")
    p.add_argument("name", metavar="NAME", help="fixture name (spherical-flip)")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_fixture)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = args.func(args)
    except GeometryError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, OSError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        print(f"usage error: {what}", file=sys.stderr)
        return 2
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
