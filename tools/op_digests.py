"""Hash every benchmark op's output, to show which workloads' bits moved.

    python tools/op_digests.py [--seeds 1 2 3] [--against REV]

For each workload in the `WORKLOADS` dict of `bench/workloads.py` and each
seed, draws the inputs with the workload's own `generate`, decodes them,
runs every op once and prints sha256 digests: of the inputs, of the outputs (a raise counts as
its error type), and, for holonomy, of each draw's canonical product
`_standard_triple(s_coords(T)).product().m` and of its verdict inputs
`s_coords(T).alpha` and `triples._kappa(T.points)`, which `_reads_real`
turns into the rank.  The holonomy op returns only a rank, so its output
digest cannot show a moved bit in the arithmetic behind the rank; the
canonical products and the verdict inputs can.  The benchmark's files
are only read.

`--against REV` runs the same digests on `git archive REV` in a second
process and prints both sides, with the workloads whose digests differ.
The exit status is 0 whether or not bits moved: the digests are a report,
not a gate.  Run it under `NPY_DISABLE_CPU_FEATURES` to hash both sides on
another SIMD dispatch of numpy; the second process inherits it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _load(root: Path):
    """The `workloads` module of the tree at `root`, importing that tree's
    chgeom; a different chgeom already importable first is an error."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import chgeom
    import workloads

    pkg = Path(chgeom.__file__).resolve().parent
    if pkg != (root / "src" / "chgeom").resolve():
        raise SystemExit(f"imported chgeom from {pkg}, not from {root}")
    return workloads


def _per_triple(items, f) -> list[bytes]:
    """f(T) for the triple T of each decoded holonomy item (T, real, seed);
    a raise counts as its error type."""
    out = []
    for T, *_ in items:
        try:
            out.append(f(T))
        except Exception as exc:
            out.append(f"raise {type(exc).__name__}".encode())
    return out


def _canonical_product(T) -> bytes:
    from chgeom.triples import _standard_triple, s_coords

    return _standard_triple(s_coords(T)).product().m.tobytes()


def _verdict_inputs(T) -> bytes:
    """alpha and kappa, which _reads_real reads the holonomy rank from."""
    from chgeom.triples import _kappa, s_coords

    return np.array([s_coords(T).alpha, _kappa(T.points)]).tobytes()


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
        h.update(b"\n")
    return h.hexdigest()


def _run(op, item) -> bytes:
    try:
        return json.dumps(op(item)).encode()
    except Exception as exc:
        return f"raise {type(exc).__name__}".encode()


def digests(wl, seed: int) -> dict[str, str]:
    """{"inputs", "outputs"[, "canonical", "verdict"]} sha256 digests of one
    workload at one seed."""
    raw, _ = wl.generate(seed)
    items = wl.decode(raw)
    out = {
        "inputs": _sha([json.dumps(raw, sort_keys=True).encode()]),
        "outputs": _sha(_run(wl.op, item) for item in items),
    }
    if wl.name == "holonomy":
        out["canonical"] = _sha(_per_triple(items, _canonical_product))
        out["verdict"] = _sha(_per_triple(items, _verdict_inputs))
    return out


def collect(root: Path, seeds) -> dict:
    """{workload: {seed: digests}} for every workload of the tree at `root`."""
    wls = _load(root).WORKLOADS
    return {n: {str(s): digests(wl, s) for s in seeds} for n, wl in wls.items()}


def _archive(root: Path, rev: str, dest: Path) -> None:
    """`git archive rev` of the checkout at `root`, unpacked into dest."""
    tar = dest / "tree.tar"
    subprocess.run(
        ["git", "-C", str(root), "archive", "--format=tar", "-o", str(tar), rev], check=True
    )
    with tarfile.open(tar) as tf:
        tf.extractall(dest / "tree")


def _against(root: Path, rev: str, seeds) -> dict:
    """collect() on `git archive rev` of the checkout at `root`, run by this
    script in a new process."""
    with tempfile.TemporaryDirectory() as tmp:
        _archive(root, rev, Path(tmp))
        cmd = [sys.executable, str(Path(__file__).resolve()), "--json"]
        cmd += ["--root", str(Path(tmp) / "tree"), "--seeds", *map(str, seeds)]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"digests of {rev} failed (exit {proc.returncode})")
    return json.loads(proc.stdout.splitlines()[-1])


def report(sides: dict[str, dict]) -> list[str]:
    """One line per workload, seed and digest, a column per side (first 16
    hex digits), and last the workloads whose digests differ."""
    labels = list(sides)
    first = sides[labels[0]]
    lines = [f"{'workload':<10} {'seed':>4}  {'digest':<9}  " + "  ".join(f"{x:<16}" for x in labels)]
    moved = []
    for name, per_seed in first.items():
        for seed, dig in per_seed.items():
            for key in dig:
                row = [sides[x].get(name, {}).get(seed, {}).get(key, "-") for x in labels]
                same = len(set(row)) == 1
                if not same and name not in moved:
                    moved.append(name)
                cells = "  ".join(f"{v[:16]:<16}" for v in row)
                lines.append(f"{name:<10} {seed:>4}  {key:<9}  {cells}" + ("" if same else "  differs"))
    if len(labels) > 1:
        lines.append("bits moved: " + (", ".join(moved) if moved else "none"))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--against", metavar="REV", help="also hash `git archive REV`")
    ap.add_argument("--root", type=Path, default=ROOT, help=argparse.SUPPRESS)
    ap.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    mine = collect(args.root, args.seeds)
    if args.json:
        print(json.dumps(mine))
        return 0
    sides = {"this tree": mine}
    if args.against:
        sides[args.against] = _against(args.root, args.against, args.seeds)
    print("\n".join(report(sides)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
