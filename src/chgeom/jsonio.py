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
same errors as malformed arguments; shape and key problems and non-finite
numbers raise ValueError.
Encoding a decoded object reproduces the input bit for bit (floats are
written with shortest round-trip precision by the json module).
"""

from __future__ import annotations

import json

import numpy as np

from .core import DEFAULT_TOL, Gram, Point, point
from .isometry import CubeRoot, Isometry, isometry
from .paths import PathSample, path_sample
from .pentagons import Pentagon, pentagon
from .triples import Move, SCoords, Triple, triple


def encode_complex(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(v) -> complex:
    re, im = v
    return complex(float(re), float(im))


def encode_vector(v) -> list[list[float]]:
    return [encode_complex(z) for z in np.asarray(v).ravel()]


def decode_vector(data) -> np.ndarray:
    return np.array([decode_complex(v) for v in data], dtype=complex)


def decode_point(data, tol: float = DEFAULT_TOL) -> Point:
    v = decode_vector(data["rep"])
    p = point(v, tol)
    want = int(data["sign"])
    if p.sign != want:
        raise ValueError(f"stored sign {want} disagrees with the representative")
    # Canonicalizing an already-canonical vector only stirs the last bits;
    # keep the stored ones so a re-encode reproduces the file exactly.
    if float(np.abs(p.rep - v).max()) <= 1e-12 * float(np.abs(v).max()):
        v.flags.writeable = False
        return Point(rep=v, sign=p.sign)
    return p


def decode_gram(data) -> Gram:
    n = int(data["n"])
    entries = [decode_complex(v) for v in data["entries"]]
    if len(entries) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(entries)}")
    m = np.array(entries, dtype=complex).reshape(n, n)
    m.flags.writeable = False
    return Gram(m=m)


def decode_isometry(data, tol: float = DEFAULT_TOL) -> Isometry:
    m = [decode_complex(v) for v in data["m"]]
    if len(m) != 9:
        raise ValueError(f"expected 9 entries, got {len(m)}")
    return isometry(np.array(m, dtype=complex).reshape(3, 3), tol)


def decode_cube_root(data) -> CubeRoot:
    k = int(data["k"])
    if k not in (0, 1, 2):
        raise ValueError(f"cube root index must be 0, 1 or 2, got {k}")
    return CubeRoot(k)


def decode_coords(data) -> SCoords:
    sigma = tuple(int(s) for s in data["sigma"])
    if len(sigma) != 3:
        raise ValueError("sigma must have three entries")
    return SCoords(
        t=float(data["t"]),
        t1=float(data["t1"]),
        t2=float(data["t2"]),
        sigma=sigma,
        alpha=float(data["alpha"]),
        beta=float(data["beta"]),
    )


def decode_moves(data) -> list[Move]:
    return [Move(pair=str(d["pair"]), s=float(d["s"])) for d in data]


def decode_path_sample(data, tol: float = DEFAULT_TOL) -> PathSample:
    points = [decode_point(d, tol) for d in data["points"]]
    return path_sample(points, [float(x) for x in data["params"]])


def decode_triple(data, tol: float = DEFAULT_TOL) -> Triple:
    points = [decode_point(d, tol) for d in data["points"]]
    if len(points) != 3:
        raise ValueError(f"a triple needs 3 points, got {len(points)}")
    return triple(*points)


def decode_pentagon(data) -> Pentagon:
    points = [decode_point(d) for d in data["points"]]
    if len(points) != 5:
        raise ValueError(f"a pentagon needs 5 points, got {len(points)}")
    P = pentagon(*points)
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
