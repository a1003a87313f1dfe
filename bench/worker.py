"""The measured process for one workload, started by run.py.

    worker.py setup   WORKLOAD INPUTS
    worker.py measure WORKLOAD INPUTS SECONDS [TRACE_OUT]

``setup`` imports chgeom, decodes the inputs, runs one op and prints
``ready``: run.py times a fresh interpreter from launch to that line.

``measure`` decodes the inputs, runs warm-up ops, then a closed loop of ops
(one at a time, cycling through the inputs) until SECONDS have passed, and
prints one JSON line: the start and wall time of every op, the output of
each input's first op, how many repeats differed from that first output,
the start and wall time of every run of the reference kernel, and the peak
resident memory.  Between ops the loop runs the reference kernel, a fixed
piece of numpy and Python work that does not touch chgeom, for about a
tenth of the time, so that run.py can tell how fast the machine ran while
each op ran.  With TRACE_OUT every op also runs once more under the
tracing wrappers, next to its untraced run, so machine speed drifts alike
for both; the spans go to TRACE_OUT, and the traced times and the count of
traced outputs that differ from the untraced ones join the JSON line.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from workloads import WORKLOADS  # noqa: E402  (needs the path above)

from chgeom.errors import GeometryError  # noqa: E402


#: The share of the timed loop spent in the reference kernel.
KERNEL_SHARE = 0.1

_KERNEL_A = np.array(
    [[1.0 + 0.5j, 0.2, -0.3j], [0.1j, 0.9, 0.4], [0.3, -0.2 + 0.1j, 1.1]]
)


def reference_kernel() -> float:
    """A fixed mix of 3x3 complex numpy calls and Python object churn.

    It stands for the kind of work chgeom does, and never changes: its
    speed is the machine's, so it measures how fast the machine runs at a
    given moment.  Changing it rescales every normalized time metric.
    """
    m = _KERNEL_A
    acc = 0.0
    for k in range(60):
        m = m @ _KERNEL_A / np.linalg.norm(m)
        v = m[:, 0]
        acc += abs(complex(v[0] * v[1].conjugate())) + float(np.vdot(v, v).real)
        _ = (acc, k, [v[0], v[1]], {"k": k})
    return acc


def run_op(op, item):
    """(wall ns, {"result": ...} or {"error": type name}) for one op."""
    t0 = time.perf_counter_ns()
    try:
        out = {"result": op(item)}
    except GeometryError as exc:
        out = {"error": type(exc).__name__}
    except Exception as exc:  # noqa: BLE001  a crash is a failed op, kept by type
        out = {"error": type(exc).__name__, "unexpected": True}
    return time.perf_counter_ns() - t0, out


def timed_loop(op, items, seconds: float, wrappers=None, rec=None):
    """Run ops, cycling through the items, until `seconds` have passed.

    With `wrappers`, each op also runs once traced, right before or after
    its untraced run (alternating, so neither order is favoured), and the
    traced output must equal the untraced one.
    """
    ns, starts, first, mismatches = [], [], [None] * len(items), 0
    kernel_ns, kernel_starts = [], []
    traced_ns, traced_mismatches = [], 0
    t0 = time.perf_counter_ns()
    deadline = t0 + int(seconds * 1e9)
    op_total = kernel_total = 0
    i = 0
    while i == 0 or time.perf_counter_ns() < deadline:
        k = i % len(items)
        if wrappers is not None and i % 2:
            traced = traced_op(op, items[k], wrappers, rec, i)
        starts.append(time.perf_counter_ns() - t0)
        dt, out = run_op(op, items[k])
        if wrappers is not None and not i % 2:
            traced = traced_op(op, items[k], wrappers, rec, i)
        ns.append(dt)
        op_total += dt
        while kernel_total < KERNEL_SHARE * op_total:
            start = time.perf_counter_ns()
            reference_kernel()
            kernel_starts.append(start - t0)
            kernel_ns.append(time.perf_counter_ns() - start)
            kernel_total += kernel_ns[-1]
        if first[k] is None:
            first[k] = out
        elif out != first[k]:
            mismatches += 1
        if wrappers is not None:
            traced_ns.append(traced[0])
            traced_mismatches += traced[1] != first[k]
        i += 1
    report = {
        "ns": ns,
        "starts": starts,
        "kernel_ns": kernel_ns,
        "kernel_starts": kernel_starts,
        "outputs": first[: min(i, len(items))],
        "mismatches": mismatches,
    }
    if wrappers is not None:
        report.update(traced_ns=traced_ns, traced_mismatches=traced_mismatches)
    return report


def traced_op(op, item, wrappers, rec, op_id: int):
    rec.op_id = op_id
    wrappers.on()
    try:
        return run_op(op, item)
    finally:
        wrappers.off()


def _threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main(argv) -> int:
    mode, name, inputs_path = argv[:3]
    wl = WORKLOADS[name]
    with open(inputs_path) as fh:
        items = wl.decode(json.load(fh))
    if mode == "setup":
        run_op(wl.op, items[0])
        print("ready", flush=True)
        return 0

    seconds = float(argv[3])
    trace_out = argv[4] if len(argv) > 4 else None
    for item in items[: wl.warmup]:
        run_op(wl.op, item)
        reference_kernel()
    wrappers = rec = None
    if trace_out:
        import tracing

        rec = tracing.Recorder()
        wrappers = tracing.Wrappers(rec)
    report = timed_loop(wl.op, items, seconds, wrappers, rec)
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["threads"] = _threads()
    if trace_out:
        rec.dump(trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
