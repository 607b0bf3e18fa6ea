"""Benchmark of switchid: the campaign, identify and certify workloads.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 40 --trace 0

runs one workload in this process on one thread and prints, last, one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run times the
workload once untraced and once with spans around every layer function, and
the metrics are the per-layer ones plus the tracing overhead.
``--workload all`` runs each workload in its own process and prints every
result.  The package is imported from ``src/`` next to this directory; the
benchmark exits with status 2 when it is not there.  See METRICS.md for what
each metric means and which layer should move it.
"""

from __future__ import annotations

import os

# BLAS reads its thread count once, when numpy loads it: pin it first.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

NAMES = ("campaign", "identify", "certify")
SETUP_REPEATS = 5
# op_ms_tail is the highest percentile with at least ten operations beyond
# it in a 40 s run at the seed commit's speed, slow spells included: over
# 126 campaign trials (a third of them at N = 1e5) and over 44
# identifications.
TAIL_PERCENTILE = {"campaign": 90, "identify": 75}


def blas_threads():
    """Thread count the OpenBLAS bundled with numpy reports, or None."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_facts(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "cvxpy_importable": importlib.util.find_spec("cvxpy") is not None,
        "seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update({k: "1" for k in BLAS_ENV})
    return env


def timed_setup(wl, repeats: int) -> float:
    """Median over ``repeats`` of: start a fresh interpreter that imports
    switchid, then write the workload's inputs; at reference host speed."""
    speed = hostspeed.SpeedLog(hostspeed.SETUP_MIX)
    spans = []
    for _ in range(repeats):
        speed.sample(force=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import switchid"], env=child_env(), check=True)
        wl.setup()
        spans.append((t0, time.perf_counter()))
    speed.sample(force=True)
    return statistics.median((t1 - t0) / speed.slowness((t0 + t1) / 2) for t0, t1 in spans)


def measure(wl, seconds: float, tracer=None, speed=None):
    """Closed loop of steps until ``seconds`` have passed, at least one step.

    Returns ``{traced: (ops, busy seconds)}``; checks run outside the step
    clock.  With a tracer every step runs twice on the same inputs, first
    untraced and then traced, so that slow spells of the host hit both.
    With a ``hostspeed.SpeedLog`` the host is probed between steps and every
    time is scaled to the reference speed.
    """
    modes = (False,) if tracer is None else (False, True)
    steps = {traced: [] for traced in modes}
    if speed is not None:
        speed.sample(force=True)
    start = time.perf_counter()
    i = 0
    while True:
        for traced in modes:
            if traced:
                tracer.phase = "ops"
            t0 = time.perf_counter()
            out = wl.step(i)
            t1 = time.perf_counter()
            if traced:
                tracer.phase = None
            steps[traced].append((t0, t1, wl.check(out, 1e3 * (t1 - t0))))
            if speed is not None:
                speed.sample()
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    if speed is not None:
        speed.sample(force=True)

    acc = {}
    for traced, records in steps.items():
        ops, busy = [], 0.0
        for t0, t1, step_ops in records:
            slow = 1.0 if speed is None else speed.slowness((t0 + t1) / 2)
            busy += (t1 - t0) / slow
            ops += [dataclasses.replace(op, ms=op.ms / slow) for op in step_ops]
        acc[traced] = (ops, busy)
    return acc


def percentile(values, p):
    import numpy

    return float(numpy.percentile(values, p))


def end_to_end(name, wl, ops, busy, setup_s) -> tuple[dict, list[str]]:
    """The JSON metrics of a ``--trace 0`` run, and lines for the reader."""
    ok = sum(op.ok for op in ops)
    reasons: dict[str, int] = {}
    for op in ops:
        if not op.ok:
            reasons[op.reason] = reasons.get(op.reason, 0) + 1
    metrics = {
        "setup_s": (setup_s, "s"),
        "ok_per_s": (ok / busy, "1/s"),
    }
    notes = {}
    if name in TAIL_PERCENTILE:
        p = TAIL_PERCENTILE[name]
        ms = [op.ms for op in ops]
        metrics["op_ms_p50"] = (percentile(ms, 50), "ms")
        metrics["op_ms_tail"] = (percentile(ms, p), "ms")
        notes["op_ms_p50"] = f"median of {len(ms)} ops"
        notes["op_ms_tail"] = f"p{p}, {sum(m > metrics['op_ms_tail'][0] for m in ms)} ops beyond"
    fail = (len(ops) - ok) / len(ops)
    if name == "certify":
        metrics["fail_frac"] = (fail, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    shown = dict(metrics)
    shown["fail_frac"] = (fail, "ratio")
    notes["fail_frac"] = json.dumps(reasons, sort_keys=True)
    shown.update(wl.summary())
    lines = [
        f"  {key:<16} {value:>14.6g} {unit:<6} {notes.get(key, '')}".rstrip()
        for key, (value, unit) in shown.items()
    ]
    return metrics, lines


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path[:0] = [SRC, HERE]
    import tracing
    import workloads

    facts = host_facts(seed)
    print("host " + json.dumps(facts, sort_keys=True), flush=True)
    workdir = os.path.join(WORK, f"{name}-seed{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = workloads.WORKLOADS[name](workdir, seed)
    try:
        if not trace:
            setup_s = timed_setup(wl, SETUP_REPEATS)
            speed = hostspeed.SpeedLog(wl.probe_mix)
            ops, busy = measure(wl, seconds, speed=speed)[False]
            metrics, lines = end_to_end(name, wl, ops, busy, setup_s)
            lines.append(f"  host slowness   {statistics.median(speed.values):>14.6g} x      "
                         f"median of {len(speed.values)} probes; times above are at reference speed")
        else:
            wl.setup()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                tracer.phase = "setup"
                wl.setup()
                tracer.phase = None
                acc = measure(wl, seconds, tracer)
            finally:
                tracer.uninstall()
            (plain_ops, plain_busy), (ops, busy) = acc[False], acc[True]
            overhead = 1e3 * (busy / len(ops) - plain_busy / len(plain_ops))
            metrics = tracing.layer_metrics(tracer.spans, len(ops), overhead)
            ops = plain_ops + ops
            path = os.path.join(WORK, f"trace-{name}-seed{seed}.json")
            tracer.dump(path, {"workload": name, "host": facts})
            lines = [f"  {k:<52} {v:>14.6g} {u}" for k, (v, u) in metrics.items()]
            lines.append(f"  spans written to {os.path.relpath(path, ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not op.ok for op in ops)
    correct = not any(op.reason and op.reason.startswith("check:") for op in ops)
    print(f"workload {name}: {len(ops)} ops attempted, {failed} failed, outputs correct: {correct}")
    print("\n".join(lines))
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "switchid", "__init__.py")):
        print(f"switchid sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
