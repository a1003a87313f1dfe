"""Spans and counters recorded from outside chgeom, and the per-layer metrics.

``Wrappers`` swaps chgeom's public functions (and ``_coordinate_move``,
which the surface code calls directly) for wrappers and back.  A module
that did ``from .core import form`` holds its own reference to ``form``, so
every module attribute bound to the original function is swapped, not only
the one in the defining module.

A span wrapper appends the span to flat lists held by a ``Recorder``: name,
start and end in ns, parent span, op id, the exception type if it raised,
and for a few functions a value taken from the result.  Functions called
thousands of times per op whose time nobody needs get a counter instead.
Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Functions recorded as spans, by "<module>.<qualname>".
SPANS = (
    "core.point",
    "isometry.project_to_su",
    "isometry.isometry_log",
    "paths.bending",
    "paths.Bending.evaluate",
    "paths.normalized_lift",
    "paths.follow_path",
    "triples.s_coords",
    "triples._coordinate_move",
    "triples.connect_triples",
    "pentagons.connect_pentagons",
    "pentagons.apply_pentagon_moves",
    "holonomy.holonomy_dimension",
    "holonomy.holonomy_samples",
    "jsonio.decode_triple",
    "jsonio.decode_pentagon",
    "jsonio.encode",
    "jsonio.dumps",
)

# Functions only counted: each is called thousands of times per op, and a
# span apiece would cost more than the call.
COUNTS = ("core.form", "core.gram", "isometry.reflection")

# Numbers taken from a call's result for the per-layer statistics.  The
# result is kept and the hook applied when the spans are written, so the
# hook's cost falls outside every timed span.
HOOKS = {
    "triples.connect_triples": lambda r: (len(r[0]), float(np.linalg.norm(r[1].m, 2))),
}


class Recorder:
    """In-memory spans and counters for one traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.error: dict[int, str] = {}
        self.value: dict[int, object] = {}
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.op_id = -1

    def spans(self) -> list[tuple]:
        """(op, id, parent, name, start_ns, end_ns, error, value) per span."""
        return [
            (
                self.op[i],
                i,
                self.parent[i],
                self.names[i],
                self.start[i],
                self.end[i],
                self.error.get(i),
                HOOKS[self.names[i]](self.value[i]) if i in self.value else None,
            )
            for i in range(len(self.names))
        ]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"counts": dict(self.counts), "spans": self.spans()}, fh)


def _span_wrapper(rec: Recorder, name: str, fn):
    clock = time.perf_counter_ns
    keep = name in HOOKS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = len(rec.names)
        rec.names.append(name)
        rec.parent.append(rec.stack[-1] if rec.stack else -1)
        rec.op.append(rec.op_id)
        rec.end.append(0)
        rec.stack.append(sid)
        rec.start.append(clock())
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.error[sid] = type(exc).__name__
            raise
        finally:
            rec.end[sid] = clock()
            rec.stack.pop()
        if keep:
            rec.value[sid] = result
        return result

    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _resolve(name: str):
    """The module (or class) holding `name`, the attribute, and the function."""
    mod, *owner, attr = name.split(".")
    target = sys.modules[f"chgeom.{mod}"]
    for part in owner:
        target = getattr(target, part)
    return target, attr, getattr(target, attr)


class Wrappers:
    """The traced functions' wrappers, bound wherever chgeom binds the
    originals; ``on`` and ``off`` swap them in and out by attribute."""

    def __init__(self, rec: Recorder):
        modules = [m for n, m in sys.modules.items() if n == "chgeom" or n.startswith("chgeom.")]
        self.bindings = []
        for name in SPANS + COUNTS:
            owner, attr, fn = _resolve(name)
            if name in SPANS:
                wrapped = _span_wrapper(rec, name, fn)
            else:
                wrapped = _count_wrapper(rec, name, fn)
            if isinstance(owner, type):
                self.bindings.append((owner, attr, fn, wrapped))
                continue
            for mod in modules:
                for key, val in vars(mod).items():
                    if val is fn:
                        self.bindings.append((mod, key, fn, wrapped))

    def on(self) -> None:
        for owner, attr, _, wrapped in self.bindings:
            setattr(owner, attr, wrapped)

    def off(self) -> None:
        for owner, attr, fn, _ in self.bindings:
            setattr(owner, attr, fn)


# ----------------------------------------------------------------- analysis


def self_times(spans) -> dict[int, int]:
    """Span id -> its duration minus the time its direct children cover.

    Spans come from one thread of synchronous calls, so children are
    disjoint and lie inside their parent.
    """
    child = defaultdict(int)
    dur = {}
    for _, sid, parent, _, start, end, _, _ in spans:
        dur[sid] = end - start
        if parent >= 0:
            child[parent] += end - start
    return {sid: d - child[sid] for sid, d in dur.items()}


def layer_metrics(spans, counts, n_ops: int) -> dict[str, float]:
    """The per-layer metrics of one traced phase of n_ops ops."""
    own = self_times(spans)
    by_id = {s[1]: s for s in spans}
    calls = Counter()
    self_ns = Counter()
    outer_ns = Counter()
    for op, sid, parent, name, start, end, err, val in spans:
        calls[name] += 1
        self_ns[name] += own[sid]
        # inclusive time of the outermost span of each name, so recursion
        # (jsonio.encode calls itself) is not counted twice
        p = parent
        while p >= 0 and by_id[p][3] != name:
            p = by_id[p][2]
        if p < 0:
            outer_ns[name] += end - start

    def per_op(x):
        return x / n_ops

    def ms(ns):
        return per_op(ns) / 1e6

    out = {}
    for name in ("core.form", "core.gram", "isometry.reflection"):
        out[f"{name}.calls_per_op"] = per_op(counts.get(name, 0))
    for name in (
        "core.point",
        "isometry.project_to_su",
        "isometry.isometry_log",
        "paths.bending",
        "paths.Bending.evaluate",
        "triples.s_coords",
        "triples._coordinate_move",
    ):
        out[f"{name}.calls_per_op"] = per_op(calls[name])
        out[f"{name}.self_ms_per_op"] = ms(self_ns[name])
    for name in (
        "paths.normalized_lift",
        "paths.follow_path",
        "triples.connect_triples",
        "pentagons.connect_pentagons",
    ):
        out[f"{name}.self_ms_per_op"] = ms(self_ns[name])
    out["pentagons.apply_pentagon_moves.ms_per_op"] = ms(outer_ns["pentagons.apply_pentagon_moves"])
    out["jsonio.decode.ms_per_op"] = ms(
        outer_ns["jsonio.decode_triple"] + outer_ns["jsonio.decode_pentagon"]
    )
    out["jsonio.encode.ms_per_op"] = ms(outer_ns["jsonio.encode"] + outer_ns["jsonio.dumps"])

    unreachable = sum(
        1 for s in spans if s[3] == "triples._coordinate_move" and s[6] == "Unreachable"
    )
    out["triples._coordinate_move.unreachable_per_op"] = per_op(unreachable)

    connects = [s[7] for s in spans if s[3] == "triples.connect_triples" and s[7] is not None]
    out["triples.connect_triples.moves_per_call"] = (
        sum(m for m, _ in connects) / len(connects) if connects else 0.0
    )
    out["triples.connect_triples.g_norm_max"] = max((g for _, g in connects), default=0.0)

    out["holonomy.holonomy_samples.calls_per_op"] = per_op(calls["holonomy.holonomy_samples"])
    rounds = Counter(
        s[2] for s in spans if s[3] == "holonomy.holonomy_samples"
    )
    dims = [s for s in spans if s[3] == "holonomy.holonomy_dimension"]
    decided = sum(1 for s in dims if s[6] is None and rounds[s[1]] == 1)
    out["holonomy.decided_first_round_ratio"] = decided / len(dims) if dims else 0.0
    return out
