"""Run one chgeom benchmark workload and print its metrics.

    python3 bench/run.py --workload connect --seed 1 --seconds 20 --trace 0

The inputs are drawn from --seed before anything is timed, and each draw
is run once and checked against a reference: the draws on which chgeom
fails today are counted (fail_ratio, digits_min, by error type) and left
out of the timed loop, so every timed op is one that should succeed.  Set-up
time is the median over fresh interpreters, each timed from launch until
chgeom is imported, the inputs are decoded and one op has run.  A separate
measured process then runs ops one at a time for --seconds, and every timed
op's output must equal the checked output of its draw bit for bit.  With
--trace 1 the measured process also runs every op a second time under
wrappers around chgeom's functions, and the metrics are the per-layer ones.

The last line of standard output is one JSON object: correct, attempted,
failed and the metrics; the lines before it are the human-readable report.
"""

import os

# Every matrix is 3x3, so a BLAS or OpenMP pool only adds start-up cost and
# scheduling noise.  Set before numpy loads here, and inherited by every
# child process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A transport op builds and frees about 10 MB of arrays.  With glibc's
# defaults the big blocks are mmapped and handed back after every op, so
# each op faults ~2500 fresh pages in, kernel work whose cost follows the
# host's memory pressure rather than chgeom.  Keeping freed memory in the
# heap makes the ops reuse it.  Read by glibc when a process starts, so it
# holds for every child process.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 30), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}
os.environ.update(THREAD_ENV)
os.environ.update(MALLOC_ENV)

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
OUT = os.path.join(BENCH, "out")
WORKER = os.path.join(BENCH, "worker.py")
sys.path.insert(0, SRC)

#: Fresh interpreters timed per run for setup_s.
SETUP_RUNS = 5
#: Interpreters run under -X importtime for the setup.import metrics.
IMPORTTIME_RUNS = 3
#: op_ms_tail is a percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
#: No child may outlive this many seconds beyond its expected run.
CHILD_GRACE_S = 120
#: Op times are given at the machine speed at which one run of the
#: reference kernel takes this long.
KERNEL_REF_NS = 1_000_000
#: An op's machine speed is read from the kernel runs this close to it.
SPEED_WINDOW_NS = 100_000_000


def normalized_ns(ns, starts, kernel_ns, kernel_starts):
    """Each op's wall time scaled to the reference machine speed.

    The machine's speed while an op ran is the median time of the
    reference-kernel runs that started from SPEED_WINDOW_NS before the op
    to SPEED_WINDOW_NS after it; the op's time is multiplied by
    KERNEL_REF_NS over that median.  The kernel runs are in start order.
    """
    out = []
    whole = statistics.median(kernel_ns)
    for dt, start in zip(ns, starts):
        lo = bisect.bisect_left(kernel_starts, start - SPEED_WINDOW_NS)
        hi = bisect.bisect_right(kernel_starts, start + dt + SPEED_WINDOW_NS)
        speed = statistics.median(kernel_ns[lo:hi]) if hi > lo else whole
        out.append(dt * KERNEL_REF_NS / speed)
    return out


def tail_percentile(values, cap: float, beyond: int = TAIL_BEYOND):
    """(percentile, value, samples beyond it) of the op-time tail.

    The highest nearest-rank percentile, up to `cap`, that still has at
    least `beyond` samples above its value; with too few samples for any,
    the median.
    """
    xs = sorted(values)
    n = len(xs)
    k = min(math.ceil(cap / 100.0 * n), n - beyond) - 1
    if k < 0 or n <= beyond:
        k = (n - 1) // 2
    value = xs[k]
    above = sum(1 for x in xs if x > value)
    return 100.0 * (k + 1) / n, value, above


def import_self_ms(stderr: str) -> dict[str, float]:
    """Self import time in ms summed per top-level package, from -X importtime."""
    out: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:") :].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        package = fields[2].strip().split(".")[0]
        out[package] = out.get(package, 0.0) + int(fields[0]) / 1000.0
    return out


def setup_times(workload: str, inputs_path: str) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, WORKER, "setup", workload, inputs_path],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.wait(timeout=CHILD_GRACE_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
        times.append(t1 - t0)
    return times


def import_times() -> dict[str, float]:
    """Median self import ms of numpy, scipy and chgeom's own modules."""
    runs = []
    code = f"import sys; sys.path.insert(0, {SRC!r}); import chgeom"
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True,
            text=True,
            timeout=CHILD_GRACE_S,
            check=True,
        )
        runs.append(import_self_ms(proc.stderr))
    return {
        f"setup.import.{name}_ms": statistics.median(r.get(pkg, 0.0) for r in runs)
        for name, pkg in (("numpy", "numpy"), ("scipy", "scipy"), ("chgeom_self", "chgeom"))
    }


def measure(workload: str, inputs_path: str, seconds: float, trace_out):
    cmd = [sys.executable, WORKER, "measure", workload, inputs_path, repr(seconds)]
    if trace_out:
        cmd.append(trace_out)
    proc = subprocess.run(
        cmd,
        stdout=subprocess.PIPE,
        text=True,
        timeout=4 * seconds + CHILD_GRACE_S,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def check_outputs(wl, items, outputs):
    """One Verdict per input, from its output."""
    from workloads import Verdict

    verdicts = []
    for item, out in zip(items, outputs):
        if "error" in out:
            verdicts.append(Verdict(failed=True))
            continue
        try:
            verdicts.append(wl.check(item, out["result"]))
        except Exception:  # noqa: BLE001  an output the reference cannot replay is wrong
            verdicts.append(Verdict(failed=True, gross=True))
    return verdicts


def screen(wl, raw):
    """Run every draw once, untimed, and check it against the reference.

    Returns the indices of the draws that passed, their outputs, and the
    verdict and output of every draw.  The draws that fail are today's
    known failures; they are reported, and the timed loop leaves them out.
    """
    from worker import run_op

    items = wl.decode(raw)
    outputs = [run_op(wl.op, item)[1] for item in items]
    verdicts = check_outputs(wl, items, outputs)
    kept = [i for i, v in enumerate(verdicts) if not v.failed]
    return kept, [outputs[i] for i in kept], verdicts, outputs


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the `kind` metrics BENCHMARK.json declares."""
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def environment(threads) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "thread_env": THREAD_ENV,
        "malloc_env": MALLOC_ENV,
        "measured_process_threads": threads,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import chgeom
    except ImportError as exc:
        print(f"cannot import chgeom from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(chgeom.__file__))) != SRC:
        print(f"chgeom was imported from {chgeom.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    os.makedirs(OUT, exist_ok=True)
    inputs_path = os.path.join(OUT, f"inputs-{wl.name}-{args.seed}.json")
    # one trace file per workload, overwritten by its next traced run
    trace_out = os.path.join(OUT, f"trace-{wl.name}.json") if args.trace else None

    t0 = time.perf_counter()
    raw, redraws = wl.generate(args.seed)
    gen_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    kept, expected, verdicts, screened = screen(wl, raw)
    screen_s = time.perf_counter() - t0
    if not kept:
        print(f"every one of the {len(raw)} draws failed", file=sys.stderr)
        return 1
    with open(inputs_path, "w") as fh:
        json.dump([raw[i] for i in kept], fh)
    try:
        setups = setup_times(wl.name, inputs_path)
        run = measure(wl.name, inputs_path, args.seconds, trace_out)
        imports = import_times() if args.trace else {}
    finally:
        os.remove(inputs_path)

    # accuracy of the library on everything drawn, failing draws included
    drawn_failed = sum(v.failed for v in verdicts)
    digits = [v.digits for v in verdicts if v.digits is not None]
    digits_min = min(digits) if digits else 0.0
    errors: dict[str, int] = {}
    for out in screened:
        if "error" in out:
            errors[out["error"]] = errors.get(out["error"], 0) + 1
    misses = drawn_failed - sum(errors.values())
    gross = sum(v.gross for v in verdicts)
    unexpected = sorted({o["error"] for o in screened if o.get("unexpected")})
    accuracy = {"fail_ratio": drawn_failed / len(raw), "digits_min": digits_min}

    # the timed ops: each must reproduce its draw's checked output
    ns = run["ns"]
    n = len(ns)
    outputs = run["outputs"]
    differ = {k for k, out in enumerate(outputs) if out != expected[k]}
    failed = min(n, sum(1 for i in range(n) if i % len(kept) in differ) + run["mismatches"])
    correct = gross == 0 and failed == 0 and run.get("traced_mismatches", 0) == 0

    norm = normalized_ns(ns, run["starts"], run["kernel_ns"], run["kernel_starts"])
    ms = [x / 1e6 for x in norm]
    pct, tail, above = tail_percentile(ms, wl.tail_percentile)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / (sum(norm) / 1e9),
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tail,
        "peak_rss_mb": run["maxrss_kb"] / 1024.0,
    }
    kernel_ms = [x / 1e6 for x in run["kernel_ns"]]
    raw_ms = [x / 1e6 for x in ns]
    units = {**declared_metrics("end_to_end"), **declared_metrics("per_layer")}

    print(f"workload {wl.name}, seed {args.seed}: {len(raw)} inputs generated in {gen_s:.2f} s, "
          f"generator redraws {'n/a' if redraws is None else redraws}")
    print(f"screened in {screen_s:.2f} s: {drawn_failed} of {len(raw)} draws fail today "
          f"(raised {errors or 'none'}, missed the bound {misses}, {gross} wrong results)"
          + (f", unexpected exception types {unexpected}" if unexpected else "")
          + f"; the timed loop cycles through the other {len(kept)}")
    print("environment " + json.dumps(environment(run["threads"]), sort_keys=True))
    print("setup_s samples " + " ".join(f"{x:.4f}" for x in setups))
    print(f"reference kernel: {len(kernel_ms)} runs, median {statistics.median(kernel_ms):.4f} ms, "
          f"quartiles {' '.join(f'{q:.4f}' for q in statistics.quantiles(kernel_ms, n=4))} ms; "
          f"op times below are scaled to the speed at which it takes "
          f"{KERNEL_REF_NS / 1e6:g} ms; as measured, ops_per_s {n / (sum(ns) / 1e9):.6g}, "
          f"op_ms_p50 {statistics.median(raw_ms):.6g}, "
          f"op_ms_tail {tail_percentile(raw_ms, wl.tail_percentile)[1]:.6g}")
    for name, value in {**end_to_end, **accuracy}.items():
        note = ""
        if name == "op_ms_tail":
            note = f"  (p{pct:.2f}, {above} samples beyond it, of {n})"
        if name == "fail_ratio":
            note = f"  (of the {len(raw)} draws, before any was left out)"
        print(f"{name} {value:.6g} {units[name]}{note}")
    print(f"timed ops: {n}, {failed} failed ({len(differ)} of {len(kept)} draws gave another "
          f"output than when screened, {run['mismatches']} repeats differed from the first)")

    if args.trace:
        with open(trace_out) as fh:
            trace = json.load(fh)
        import tracing

        layers = tracing.layer_metrics(trace["spans"], trace["counts"], n)
        traced = run["traced_ns"]
        layers["trace.overhead_ratio"] = sum(traced) / sum(ns)
        layers.update(imports)
        layers.update(accuracy)
        print(f"each of the {n} ops also ran traced: {run['traced_mismatches']} traced outputs "
              f"differ from the untraced ones, so fail_ratio and digits_min are "
              f"{'the same' if run['traced_mismatches'] == 0 else 'NOT the same'}; "
              f"{len(trace['spans'])} spans written to {os.path.relpath(trace_out)}; "
              f"the end-to-end figures above share the process with the tracing, "
              f"so take them from a --trace 0 run")
        for name, value in layers.items():
            print(f"{name} {value:.6g} {units[name]}")
        values = layers
    else:
        values = end_to_end

    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(values) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}")
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
