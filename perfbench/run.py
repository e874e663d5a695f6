"""precondeig benchmark runner.

    python3 perfbench/run.py [--workload solve-ddm|dense|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  With `--trace 0` the workload is set up
`setup_repeats` times (a workload constant), its operations run for
`--seconds` (solve-ddm: one solve from each of a fixed list of starts),
every operation is gated, and the end-to-end metrics are printed.  With
`--trace 1` a fixed block of operations runs untraced, traced and untraced
again (after a traced set-up and a warm-up operation), and the per-layer
metrics are printed.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; a
human-readable report with the environment record precedes it, and the full
result, spans included, is written under `perfbench/out/`.

`--workload all` (the default) runs every workload in its own child process
and ends with one JSON line whose metrics are named `<workload>.<metric>`.
"""

import os

# One process, one thread: pin BLAS before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
NAMES = ("solve-ddm", "dense")
DEFAULT_SECONDS = 35

E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
THREADS_NOTE = (
    "operations run one after another on one thread, so EIG_THREADS and the thread pool of "
    "`precondeig table` are bypassed; whether that pool helps is outside this benchmark"
)


def load_program():
    """Put this checkout's src/ and perfbench/ on the path, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "precondeig", "__init__.py")):
        sys.exit(f"perfbench: no program sources at {os.path.relpath(SRC)}")
    sys.path[:0] = [SRC, HERE]
    import precondeig

    if not os.path.abspath(precondeig.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported precondeig from {precondeig.__file__}, not {SRC}")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # show_config's layout differs across releases
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "blas_threads": BLAS_THREADS,
        "threads": THREADS_NOTE,
    }


def run_ops(w, inst, count=None, seconds=None):
    """Run and gate operations 0, 1, ...: `count` of them, or until
    `seconds` have passed."""
    tracer = getattr(inst, "t", None)
    ops = []
    t0 = time.perf_counter()
    for k in range(count) if count is not None else itertools.count():
        if seconds is not None and ops and time.perf_counter() - t0 >= seconds:
            break
        op = w.op(k, inst)
        if op.ok:
            if tracer is not None:
                tracer.on = False  # the gate's own calls are not the workload's
            problems = w.check(op)
            if tracer is not None:
                tracer.on = True
            op.ok, op.detail = not problems, "; ".join(problems)
        ops.append(op)
    return ops


def _units(ops):
    return [u for op in ops for u in op.units]


def report_figures(ops):
    """Figures beyond the metrics, with units, for the human-readable report."""
    units = _units(ops)
    failed = sum(1 for op in ops if not op.ok)
    out = {
        "attempted": (len(ops), "count"),
        "failed": (failed, "count"),
        "failed_frac": (failed / len(ops), "fraction"),
        "timed_units": (len(units), "count"),
    }
    iters = [op.extra["iterations"] for op in ops if "iterations" in op.extra]
    if iters:
        out["solve_iters_p50"] = (statistics.median(iters), "count")
        solved_s = sum(op.time_s for op in ops if "iterations" in op.extra)
        out["solve_ms_per_iter"] = (1e3 * solved_s / sum(iters), "ms")
        out["iter_p50_s"] = (statistics.median(t for op in ops for t in op.extra["iter_s"]), "s")
    parts = {}
    for op in ops:
        for name, dt in op.extra.get("part_s", {}).items():
            parts.setdefault(name, []).append(dt)
    for name, times in parts.items():
        out[f"{name}_p50_s"] = (statistics.median(times), "s")
    return out


def op_records(ops):
    return [{"label": op.label, "time_s": op.time_s, "ok": op.ok, "detail": op.detail,
             **{k: v for k, v in op.extra.items() if k in ("iterations", "reason", "part_s")}}
            for op in ops]


def measure(w, seconds):
    """Untraced run: w.setup_repeats set-ups, then, on the last one, the
    workload's fixed operations or operations for `seconds`."""
    from spans import NoInstrumentation

    inst = NoInstrumentation()
    setups = []
    for _ in range(w.setup_repeats):
        t0 = time.perf_counter()
        w.setup_once(inst)
        setups.append(time.perf_counter() - t0)
    if w.fixed_ops:
        ops = run_ops(w, inst, count=w.fixed_ops)
    else:
        ops = run_ops(w, inst, seconds=seconds)
    units = _units(ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(units),
        "ops_per_s": len(units) / sum(op.time_s for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    data = {"setup_samples_s": setups, "unit_times_s": units}
    return ops, metrics, data


def measure_traced(w):
    """An untraced set-up (the untraced run's operations, too, follow more
    than one set-up), a traced set-up, then a fixed block of operations
    untraced, traced and untraced again, after one discarded warm-up
    operation.  Counts depend
    only on the inputs, so they repeat exactly.  The tracing overhead is the
    traced op_p50_s minus the mean of the two untraced ones, so first-call
    costs and a steady drift of the host's speed fall on neither side.  Where
    an operation holds few spans that difference is within the host's timing
    noise, so the spans' own cost per operation (span count times the
    calibrated cost of one span) is reported beside it."""
    from spans import Instrumentation, NoInstrumentation, Tracer, layer_metrics, span_cost_s

    plain = NoInstrumentation()
    w.setup_once(plain)
    tracer = Tracer()
    inst = Instrumentation(tracer)
    inst.install()
    tracer.on = True
    t0 = time.perf_counter()
    w.prepare(inst)
    setup_s = time.perf_counter() - t0
    tracer.on = False
    inst.uninstall()

    run_ops(w, plain, count=1)
    before = run_ops(w, plain, count=w.trace_ops)
    setup_spans = len(tracer.spans)
    inst.install()
    tracer.on = True
    traced = run_ops(w, inst, count=w.trace_ops)
    tracer.on = False
    inst.uninstall()
    after = run_ops(w, plain, count=w.trace_ops)

    for untraced in (before, after):
        for a, b in zip(untraced, traced):
            if a.signature != b.signature:
                b.ok = False
                b.detail = f"traced result {b.signature} differs from untraced {a.signature}"
    total_s = setup_s + sum(op.time_s for op in traced)
    metrics, summary = layer_metrics(tracer, total_s)
    untraced_p50 = [statistics.median(_units(ops)) for ops in (before, after)]
    metrics["trace.total_s"] = total_s
    metrics["trace.overhead_s"] = statistics.median(_units(traced)) - statistics.mean(untraced_p50)
    spans_per_op = (len(tracer.spans) - setup_spans) / w.trace_ops
    metrics["trace.span_cost_s"] = spans_per_op * span_cost_s()
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"{w.name}.spans.jsonl.gz"))
    data = {"untraced_op_p50_s": untraced_p50, "traced_op_p50_s": statistics.median(_units(traced)),
            "traced_setup_s": setup_s, "spans_per_op": spans_per_op,
            "layers": dict(sorted(summary.items()))}
    return traced, metrics, data


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_one(args):
    load_program()
    from spans import per_layer_spec
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed, ROOT)
    if args.trace:
        ops, metrics, data = measure_traced(w)
        units = {m["name"]: m["unit"] for m in per_layer_spec()}
    else:
        ops, metrics, data = measure(w, args.seconds)
        units = E2E_UNITS
    failed = sum(1 for op in ops if not op.ok)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    env = environment()
    figures = report_figures(ops)
    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  why: {w.why}")
    for key, value in env.items():
        print(f"  env.{key}: {value}")
    for key, (value, unit) in figures.items():
        print(f"  {key} = {_fmt(value)} {unit}")
    for key, m in result["metrics"].items():
        print(f"  {key} = {_fmt(m['value'])} {m['unit']}")
    for op in ops:
        if not op.ok:
            print(f"  FAILED {op.label}: {op.detail}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{w.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "result": result,
                   "figures": {k: v[0] for k, v in figures.items()},
                   "ops": op_records(ops), **data}, fh, indent=1)
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.exit(f"perfbench: {name} exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
