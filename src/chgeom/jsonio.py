"""JSON wire formats for the geometric objects.

Complex scalars travel as two-element arrays [re, im]; vectors as arrays
of three such pairs; matrices as row-major flat lists of entries.  Object
formats:

    Point       {"rep": Vector, "sign": +-1}
    Gram        {"n": n, "entries": [n*n complex, row-major]}
    Isometry    {"m": [9 complex, row-major]}
    CubeRoot    {"k": 0|1|2}
    SCoords     {"t":, "t1":, "t2":, "sigma": [+-1, +-1, +-1], "alpha":, "beta":}
    Move        {"pair": "12"|"23"|"34"|"45", "s": real}
    BendProgram [Move, ...]
    PathSample  {"params": [...], "points": [Point, ...]}
    Triple      {"points": [3 Points]}
    Pentagon    {"delta": {"k":}, "points": [5 Points]}

Decoders go through the validating factories, so malformed data raises the
same errors as malformed arguments; shape and key problems, non-finite
numbers, and a sign, cube root index or move pair outside its list raise
ValueError.
Encoding a decoded object reproduces the input bit for bit (floats are
written with shortest round-trip precision by the json module).
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from .core import DEFAULT_TOL, Gram, Point, point
from .isometry import CubeRoot, Isometry, isometry
from .paths import PathSample, path_sample
from .pentagons import RELATION_TOL, Pentagon, pentagon
from .triples import _PAIR_START, Move, SCoords, Triple, triple


def _finite(x) -> float:
    """x as a float; ValueError unless it is finite."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x}")
    return x


def _one_of(x, allowed: tuple):
    """x when it equals an entry of `allowed` of the same type (so neither
    1.0 nor True stands for 1); else ValueError."""
    if not any(type(x) is type(a) and x == a for a in allowed):
        raise ValueError(f"expected one of {allowed}, got {x!r}")
    return x


def encode_vector(v) -> list[list[float]]:
    return [[z.real, z.imag] for z in map(complex, np.asarray(v).ravel().tolist())]


def decode_vector(data) -> np.ndarray:
    out = []
    for re, im in data:
        z = complex(float(re), float(im))
        if not cmath.isfinite(z):
            # one of the two raises, naming the number
            _finite(re)
            _finite(im)
        out.append(z)
    return np.array(out, dtype=complex)


def decode_point(data, tol: float = DEFAULT_TOL) -> Point:
    v = decode_vector(data["rep"])
    p = point(v, tol)
    want = _one_of(data["sign"], (1, -1))
    if p.sign != want:
        raise ValueError(f"stored sign {want} disagrees with the representative")
    # Canonicalizing an already-canonical vector only stirs the last bits;
    # keep the stored ones so a re-encode reproduces the file exactly.  The
    # test only chooses which bits are kept, so it reads Python floats off
    # one tolist of each vector.
    stored = v.tolist()
    gap = max(abs(a - b) for a, b in zip(p.rep.tolist(), stored))
    if gap <= 1e-12 * max(map(abs, stored)):
        v.setflags(write=False)
        return Point(rep=v, sign=p.sign)
    return p


def decode_gram(data) -> Gram:
    n = int(data["n"])
    entries = decode_vector(data["entries"])
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(entries)}")
    m = entries.reshape(n, n)
    m.setflags(write=False)
    return Gram(m=m)


def decode_isometry(data, tol: float = DEFAULT_TOL) -> Isometry:
    m = decode_vector(data["m"])
    if len(m) != 9:
        raise ValueError(f"expected 9 entries, got {len(m)}")
    return isometry(m.reshape(3, 3), tol)


def decode_cube_root(data) -> CubeRoot:
    return CubeRoot(_one_of(data["k"], (0, 1, 2)))


def decode_coords(data) -> SCoords:
    sigma = tuple(_one_of(s, (1, -1)) for s in data["sigma"])
    if len(sigma) != 3:
        raise ValueError("sigma must have three entries")
    reals = {k: _finite(data[k]) for k in ("t", "t1", "t2", "alpha", "beta")}
    return SCoords(sigma=sigma, **reals)


def decode_moves(data) -> list[Move]:
    pairs = tuple(_PAIR_START)
    return [Move(pair=_one_of(d["pair"], pairs), s=_finite(d["s"])) for d in data]


def decode_path_sample(data, tol: float = DEFAULT_TOL) -> PathSample:
    points = [decode_point(d, tol) for d in data["points"]]
    return path_sample(points, [_finite(x) for x in data["params"]])


def _decode_points(data, n: int, tol: float = DEFAULT_TOL) -> list[Point]:
    """The points of the list `data`; ValueError unless there are n."""
    points = [decode_point(d, tol) for d in data]
    if len(points) != n:
        raise ValueError(f"expected {n} points, got {len(points)}")
    return points


def decode_triple(data, tol: float = DEFAULT_TOL) -> Triple:
    return triple(*_decode_points(data["points"], 3, tol))


def decode_pentagon(data, tol: float = RELATION_TOL) -> Pentagon:
    """The pentagon of `data`, its relation checked at `tol`; ValueError
    when a stored delta disagrees with the points."""
    P = pentagon(*_decode_points(data["points"], 5), tol=tol)
    if "delta" in data and P.delta != decode_cube_root(data["delta"]):
        raise ValueError("stored delta disagrees with the five points")
    return P


def encode(obj):
    """JSON-able data for any of the wire-format objects (lists recurse)."""
    if isinstance(obj, Point):
        return {"rep": encode_vector(obj.rep), "sign": obj.sign}
    if isinstance(obj, Gram):
        return {"n": obj.n, "entries": encode_vector(obj.m)}
    if isinstance(obj, Isometry):
        return {"m": encode_vector(obj.m)}
    if isinstance(obj, CubeRoot):
        return {"k": obj.k}
    if isinstance(obj, SCoords):
        return {
            "t": obj.t,
            "t1": obj.t1,
            "t2": obj.t2,
            "sigma": list(obj.sigma),
            "alpha": obj.alpha,
            "beta": obj.beta,
        }
    if isinstance(obj, Move):
        return {"pair": obj.pair, "s": obj.s}
    if isinstance(obj, PathSample):
        return {
            "params": [float(x) for x in obj.params],
            "points": [encode(p) for p in obj.points],
        }
    if isinstance(obj, Triple):
        return {"points": [encode(p) for p in obj.points]}
    if isinstance(obj, Pentagon):
        return {
            "delta": encode(obj.delta),
            "points": [encode(p) for p in obj.points],
        }
    if isinstance(obj, (list, tuple)):
        return [encode(x) for x in obj]
    raise TypeError(f"no wire format for {type(obj).__name__}")


def dumps(data) -> str:
    """Deterministic rendering of already-encoded data."""
    return json.dumps(data, indent=2, sort_keys=True)
