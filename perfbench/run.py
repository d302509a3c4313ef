"""Benchmark of cylcov: three workloads, end-to-end metrics, per-layer traces.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload paper-figures --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 runs the same rounds
in-process, each op untraced and then traced, and reports the per-layer
metrics and the tracing overhead.  --steady K runs K untraced runs of one
workload with seeds 1..K as child processes and prints each metric's
median, quartiles and range, raw and scaled.  The last line of a run's output is
one JSON object with the keys correct, attempted, failed and metrics.

A run does a fixed number of whole rounds, round(seconds / round_s) and
at least one, where round_s is the workload's nominal round length on the
2-core machine the bounds were set on.  Every commit then does the same
work for the same --seconds, so run_s compares like with like.
"""

import os

# One BLAS / OpenMP thread, for this process and its children: default
# threads change the analytic digits and add CPU time without speed-up.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import METRICS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent

# The machine's speed drifts by tens of percent over minutes, switching
# between a fast and a slow state, and process CPU time drifts with it.
# Every set-up and op is timed between two calls of a fixed reference
# kernel, and times are scaled to the kernel speed REF_NOMINAL_S, the
# kernel's median on the 2-core machine the bounds were set on.  Each part
# of a run, its set-ups and its ops, is scaled by one factor: REF_NOMINAL_S
# over the mean of every kernel time around that part's calls.  One pair of
# kernel samples per op carries noise of its own, and scaling each op by
# its own pair spread op_p50_s wider than this mean did.
REF_NOMINAL_S = 0.0100
_REF_ARRAY = np.random.Generator(np.random.PCG64(0)).random(150_000)


def reference_kernel():
    """Seconds for a fixed mix of interpreter and numpy work, median of seven."""
    times = []
    for _ in range(7):
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i & 7
        np.sort(_REF_ARRAY)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Timed:
    """Raw seconds of one call, the kernel time around it, and whether it raised."""

    def __init__(self, raw, kernel, error):
        self.raw = raw
        self.kernel = kernel
        self.error = error


def scale(times):
    """The factor that scales times to the nominal kernel speed."""
    return REF_NOMINAL_S / statistics.fmean(t.kernel for t in times)


def timed(fn):
    """Call fn between two kernel runs; return (Timed, fn's result)."""
    before = reference_kernel()
    start = time.perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:  # a failed op is counted, not fatal
        result, error = None, exc
    raw = time.perf_counter() - start
    return Timed(raw, 0.5 * (before + reference_kernel()), error), result


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def check(fn, *args):
    """Run a check; print and return its failure message, or None."""
    try:
        fn(*args)
    except workloads.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return str(exc)
    return None


def attempt(op, call, problems):
    """Time call, which runs op; append its check failure to problems; return its Timed."""
    t, result = timed(call)
    if t.error is None:
        problems.append(check(op.check, result))
    elif not (op.expected_failure and isinstance(t.error, RuntimeError)):
        problems.append(f"unexpected failure of {op.label}: {t.error!r}")
        print(problems[-1], file=sys.stderr)
    return t


def run_rounds(workload, seed, rounds):
    """Attempt every op of every round; return (one Timed per op, check failures)."""
    times, problems = [], []
    for k in range(rounds):
        for op in workload.round(seed, k):
            times.append(attempt(op, op.call, problems))
    return times, [p for p in problems if p]


def succeeded(times, problems):
    """The ops that did not raise; all of them, and a problem, if every op raised."""
    ok = [t for t in times if t.error is None]
    if not ok:
        problems.append("no op succeeded")
        print(problems[-1], file=sys.stderr)
    return ok or times


def end_to_end(args, workload):
    setups = []
    for _ in range(workload.setup_repeats):
        t, _ = timed(workload.setup)
        if t.error is not None:
            raise t.error
        setups.append(t)
    problems = [check(workload.prepare)]
    rounds = max(1, round(args.seconds / workload.round_s))
    ops, more = run_rounds(workload, args.seed, rounds)
    problems += more
    failed = sum(t.error is not None for t in ops)
    ok = succeeded(ops, problems)
    raw = {
        "setup_s": statistics.median(t.raw for t in setups),
        "run_s": sum(t.raw for t in ops),
        "op_p50_s": statistics.median(t.raw for t in ok),
    }
    scaled = {
        "setup_s": raw["setup_s"] * scale(setups),
        "run_s": raw["run_s"] * scale(ops),
        "op_p50_s": raw["op_p50_s"] * scale(ops),
    }
    rss = peak_rss_mb()
    print(f"workload {workload.name}  seed {args.seed}  rounds {rounds}  "
          f"attempted {len(ops)}  failed {failed}")
    for name in raw:
        print(f"{name:10s} {scaled[name]:.4f} s  (raw {raw[name]:.4f} s)")
    print(f"{'peak_rss_mb':10s} {rss:.1f} MB")
    print("detail " + json.dumps({"raw": raw, "scaled": scaled, "peak_rss_mb": rss,
                                  "attempted": len(ops), "failed": failed}))
    metrics = {name: {"value": value, "unit": "s"} for name, value in scaled.items()}
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return not any(problems), len(ops), failed, metrics


def per_layer(args, workload):
    rounds = max(1, round(args.seconds / workload.round_s))
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
        problems = [check(workload.prepare)]
    finally:
        tracer.uninstall()
    # Each op runs untraced and then traced, so that the machine's drift
    # falls on both passes alike and cancels out of the overhead.
    plain, traced = [], []
    for k in range(rounds):
        for op in workload.round(args.seed, k):
            plain.append(attempt(op, op.call, problems))
            tracer.install()
            try:
                traced.append(attempt(op, functools.partial(tracer.op_span, op.call), problems))
            finally:
                tracer.uninstall()
    attempted, failed = len(traced), sum(t.error is not None for t in traced)
    untraced_s = sum(t.raw for t in plain) * scale(plain)
    traced_s = sum(t.raw for t in traced) * scale(traced)
    trace_path = workload.ctx.out / f"trace-{workload.name}-{args.seed}.csv"
    tracer.write(trace_path)
    values = tracer.metrics(traced_s - untraced_s)
    print(f"workload {workload.name}  seed {args.seed}  rounds {rounds}  "
          f"attempted {attempted}  failed {failed}")
    print(f"run_s untraced {untraced_s:.4f} s  traced {traced_s:.4f} s  "
          f"spans {len(tracer.spans)} written to {trace_path}")
    for name, value in values.items():
        print(f"{name:30s} {value:.6g} {METRICS[name]}")
    metrics = {name: {"value": value, "unit": METRICS[name]} for name, value in values.items()}
    return not any(problems), attempted, failed, metrics


def steady(args):
    """Run args.steady untraced child runs and print the spread of each metric."""
    runs = []
    for seed in range(1, args.steady + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=600,
        )
        detail = next(line for line in done.stdout.splitlines() if line.startswith("detail "))
        runs.append(json.loads(detail[len("detail "):]))
        print(f"seed {seed}: {runs[-1]}", flush=True)
    rows = [(f"{kind}.{name}", [r[kind][name] for r in runs])
            for kind in ("raw", "scaled") for name in runs[0]["raw"]]
    rows.append(("peak_rss_mb", [r["peak_rss_mb"] for r in runs]))
    rows.append(("failed share", [r["failed"] / r["attempted"] for r in runs]))
    print(f"{'metric':18s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'iqr/med':>8s} "
          f"{'min':>10s} {'max':>10s}")
    for name, values in rows:
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:18s} {med:10.4f} {q1:10.4f} {q3:10.4f} {spread:8.3f} "
              f"{min(values):10.4f} {max(values):10.4f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K",
                        help="run K untraced child runs and print the spread of each metric")
    args = parser.parse_args()
    # One core for the benchmark and the children that inherit it, so that
    # the reference kernel is timed on the core the ops run on: the cores of
    # a shared machine change speed apart from each other.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.steady:
        return steady(args)

    root = Path.cwd()
    src = root / "src"
    if not (src / "cylcov" / "__init__.py").is_file():
        print(f"error: no cylcov sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    ctx = workloads.Context(root, out, env, in_process=bool(args.trace))
    workload = workloads.WORKLOADS[args.workload](ctx, workloads.load_refs())
    correct, attempted, failed, metrics = (per_layer if args.trace else end_to_end)(args, workload)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
