"""Tests of the benchmark's own machinery.

    python3 -m pytest -q bench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import chgeom  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from chgeom import core, jsonio  # noqa: E402


def small(cls, size):
    wl = cls()
    wl.size = size
    return wl


# ------------------------------------------------------------ tail rule


def test_tail_has_ten_samples_beyond_it():
    pct, value, above = run.tail_percentile(list(range(1, 101)), cap=100.0)
    assert (pct, value, above) == (90.0, 90, 10)


def test_tail_moves_out_as_samples_grow():
    pct, value, above = run.tail_percentile([float(x) for x in range(1000)], cap=100.0)
    assert pct == pytest.approx(99.0)
    assert value == 989.0 and above == 10


def test_tail_stops_at_the_cap():
    pct, value, above = run.tail_percentile([float(x) for x in range(1000)], cap=95.0)
    assert (pct, value, above) == (95.0, 949.0, 50)


def test_tail_counts_ties_as_not_beyond():
    xs = [1.0] * 50 + [2.0] * 20
    pct, value, above = run.tail_percentile(xs, cap=100.0)
    assert value == 2.0 and above == 0
    assert pct == pytest.approx(100.0 * 60 / 70)


def test_tail_falls_back_to_median_when_too_few():
    pct, value, above = run.tail_percentile([5.0, 1.0, 3.0, 4.0, 2.0], cap=99.0)
    assert (pct, value, above) == (60.0, 3.0, 2)


# ---------------------------------------------------------- machine speed


def test_normalized_ns_uses_the_kernel_runs_near_each_op():
    ms = 1_000_000
    # the kernel ran at the reference speed, then twice as slow from 1 s on
    kernel_starts = [k * 50 * ms for k in range(40)]
    kernel_ns = [run.KERNEL_REF_NS if t < 1000 * ms else 2 * run.KERNEL_REF_NS for t in kernel_starts]
    got = run.normalized_ns([10 * ms, 10 * ms], [300 * ms, 1700 * ms], kernel_ns, kernel_starts)
    assert got == [10 * ms, 5 * ms]


def test_normalized_ns_falls_back_to_the_whole_run():
    ms = 1_000_000
    got = run.normalized_ns([4 * ms], [10_000 * ms], [run.KERNEL_REF_NS * 2] * 3, [0, 1, 2])
    assert got == [2 * ms]


# ------------------------------------------------------------ self time


def span(sid, parent, name, start, end, op=0, err=None, val=None):
    return (op, sid, parent, name, start, end, err, val)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, -1, "a", 0, 100),
        span(1, 0, "b", 10, 40),
        span(2, 1, "d", 15, 25),
        span(3, 0, "c", 50, 60),
    ]
    assert tracing.self_times(spans) == {0: 60, 1: 20, 2: 10, 3: 10}


def test_layer_metrics_count_recursion_once():
    spans = [
        span(0, -1, "jsonio.encode", 0, 1_000_000),
        span(1, 0, "jsonio.encode", 100, 400_000),
        span(2, -1, "jsonio.dumps", 2_000_000, 3_000_000),
        span(3, -1, "triples.connect_triples", 4_000_000, 6_000_000, val=[2, 3.5]),
        span(4, 3, "triples._coordinate_move", 4_100_000, 4_600_000, err="Unreachable"),
        span(5, 3, "triples._coordinate_move", 4_700_000, 5_000_000),
    ]
    m = tracing.layer_metrics(spans, {"core.form": 40}, n_ops=2)
    assert m["jsonio.encode.ms_per_op"] == pytest.approx(1.0)
    assert m["core.form.calls_per_op"] == 20
    assert m["triples._coordinate_move.calls_per_op"] == 1
    assert m["triples._coordinate_move.unreachable_per_op"] == 0.5
    assert m["triples.connect_triples.self_ms_per_op"] == pytest.approx(0.6)
    assert m["triples.connect_triples.moves_per_call"] == 2
    assert m["triples.connect_triples.g_norm_max"] == 3.5


def test_decided_first_round_ratio():
    spans = [
        span(0, -1, "holonomy.holonomy_dimension", 0, 10),
        span(1, 0, "holonomy.holonomy_samples", 1, 5),
        span(2, -1, "holonomy.holonomy_dimension", 20, 40, err="RankInconclusive"),
        span(3, 2, "holonomy.holonomy_samples", 21, 25),
        span(4, 2, "holonomy.holonomy_samples", 26, 30),
    ]
    m = tracing.layer_metrics(spans, {}, n_ops=2)
    assert m["holonomy.decided_first_round_ratio"] == 0.5
    assert m["holonomy.holonomy_samples.calls_per_op"] == 1.5


# ---------------------------------------------------------- seeded inputs


@pytest.mark.parametrize(
    "wl", [small(workloads.Connect, 8), small(workloads.Transport, 6), small(workloads.Holonomy, 8)],
    ids=lambda w: w.name,
)
def test_same_seed_same_inputs(wl):
    a, b, c = wl.generate(7), wl.generate(7), wl.generate(8)
    assert json.dumps(a) == json.dumps(b)
    assert json.dumps(a) != json.dumps(c)
    assert len(a[0]) == wl.size


# ----------------------------------------------- wrappers change no result


def test_wrapped_point_is_bitwise_identical():
    v = np.array([0.3 + 0.1j, -0.2j, 1.0])
    original = core.point
    want = original(v)
    rec = tracing.Recorder()
    wrappers = tracing.Wrappers(rec)
    wrappers.on()
    try:
        got = core.point(v)
        assert core.point is not original
    finally:
        wrappers.off()
    assert got.rep.tobytes() == want.rep.tobytes() and got.sign == want.sign
    assert rec.names == ["core.point"]
    assert rec.counts["core.form"] >= 1


def test_wrappers_rebind_every_import_and_off_restores():
    originals = (core.form, chgeom.triples.form, chgeom.paths.Bending.evaluate)
    wrappers = tracing.Wrappers(tracing.Recorder())
    wrappers.on()
    try:
        assert core.form is chgeom.triples.form is chgeom.form
        assert core.form is not originals[0]
        assert chgeom.paths.Bending.evaluate is not originals[2]
    finally:
        wrappers.off()
    assert (core.form, chgeom.triples.form, chgeom.paths.Bending.evaluate) == originals


@pytest.mark.parametrize(
    "wl",
    [small(workloads.Connect, 4), small(workloads.Transport, 1), small(workloads.Holonomy, 4)],
    ids=lambda w: w.name,
)
def test_wrapped_ops_are_bitwise_identical(wl):
    items = wl.decode(wl.generate(3)[0])
    plain = [json.dumps(wl.op(item)) for item in items]
    rec = tracing.Recorder()
    wrappers = tracing.Wrappers(rec)
    wrappers.on()
    try:
        traced = [json.dumps(wl.op(item)) for item in items]
    finally:
        wrappers.off()
    assert traced == plain
    assert rec.spans()


# ------------------------------------------------------------ screening


class _Halving:
    """A stand-in workload: halves its input, fails on odd ones."""

    name = "halving"

    def decode(self, raw):
        return raw

    def op(self, x):
        if x % 2:
            raise chgeom.errors.GeometryError("odd")
        return x // 2

    def check(self, x, result):
        return workloads.Verdict(failed=result != x // 2, gross=result != x // 2, digits=16.0)


def test_screen_leaves_out_failing_draws_and_reports_them():
    kept, expected, verdicts, outputs = run.screen(_Halving(), [4, 3, 8, 5])
    assert kept == [0, 2]
    assert expected == [{"result": 2}, {"result": 4}]
    assert [v.failed for v in verdicts] == [False, True, False, True]
    assert outputs[1] == {"error": "GeometryError"}


# --------------------------------------------------------- the references


def test_connect_check_rejects_a_wrong_conjugator():
    wl = small(workloads.Connect, 1)
    item = wl.decode(wl.generate(5)[0])[0]
    out = wl.op(item)
    assert not wl.check(item, out).failed
    data = json.loads(out)
    g = np.array([complex(*z) for z in data["conjugator"]["m"]]).reshape(3, 3)
    twist = chgeom.random_isometry(chgeom.default_rng(0), 0.1).m
    data["conjugator"] = jsonio.encode(chgeom.Isometry(g @ twist))
    verdict = wl.check(item, json.dumps(data))
    assert verdict.failed and verdict.gross


def test_holonomy_check_rejects_a_wrong_rank():
    wl = small(workloads.Holonomy, 1)
    item = wl.decode(wl.generate(5)[0])[0]
    assert wl.check(item, 1).gross
    assert not wl.check(item, 2).failed


def test_import_time_parser_sums_self_time_per_package():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:       200 |        300 |   numpy",
            "import time:       400 |        400 |   scipy.linalg",
            "import time:        50 |       1000 | chgeom",
        ]
    )
    assert run.import_self_ms(stderr) == pytest.approx({"numpy": 0.3, "scipy": 0.4, "chgeom": 0.05})
