"""Span tracer and the wrappers that place spans around calls into precondeig.

Spans are recorded only by this benchmark: `Instrumentation.install` swaps
the program's public functions and methods for timing wrappers (module
bindings, class methods and the `apply_a` callable of problems the benchmark
builds) and `uninstall` puts the originals back, so an untraced pass runs the
program's own code with no extra frames.

A span has a name, a parent, a start and a duration.  Self time is the
duration minus the durations of the span's direct children.  A span opened
inside a span of the same name is folded into it (wrapper classes that
forward to an inherited method of the same layer count once).  Self times
are reported as shares of the traced time; the seconds are in the result
file the runner writes.
"""

import gzip
import json
import time
from collections import defaultdict

from precondeig import cli, diagnostics, linalg, precond, problems, solvers

OTHER = "other"  # traced time outside every layer span

# Layer names, in report order.  Each gets `.calls` and `.self_pct`.
LAYERS = (
    "linalg.SymFactor.solve",
    "linalg.SymFactor.solve_t",
    "linalg.SymFactor.mult",
    "linalg.SymFactor.mult_t",
    "problems.apply_a",
    "problems.solve_a",
    "precond.apply_inv",
    "precond.apply_inv_exact",
    "precond.DdmPreconditioner.apply_inv",
    "precond.DdmPreconditioner.coarse_part",
    "precond.apply_fwd_iterative",
    "linalg.pcg",
    "geometry.make_state",
    "solvers.rsd_solve",
    "problems.reference_eigs",
    "linalg.lanczos_top_pairs",
    "linalg.lanczos_extremal",
    "diagnostics.kappa_nu",
    "linalg.dense_sym_eig.kappa_nu",
    "linalg.dense_sym_eig.oracle",
    "linalg.Rng.normal",
    "diagnostics.validate_properties",
    "linalg.cholesky.binary64",
    "linalg.cholesky.binary32",
    "diagnostics.check_initial",
    "diagnostics.build_rate_context",
    "diagnostics.success_probability",
    "diagnostics.random_spd_pair",
    "precond.make_mp_cholesky",
    "cli.build_problem",
    "cli.build_precond",
)

# Counts recorded at layer boundaries: name -> "better" direction.
COUNTERS = {
    "linalg.pcg.iters": "lower",
    "precond.apply_fwd_iterative.in_rsd_solve": "lower",
    "precond.apply_fwd_iterative.in_build_rate_context": "lower",
    "solvers.rsd_solve.iterations": "lower",
    "problems.reference_eigs.steps": "lower",
    "linalg.lanczos_top_pairs.steps": "lower",
    "linalg.lanczos_extremal.steps": "lower",
    "diagnostics.kappa_nu.dense_route": "lower",
    "diagnostics.kappa_nu.lanczos_route": "lower",
    "linalg.Rng.normal.draws": "lower",
    "diagnostics.validate_properties.checks": "higher",
    "diagnostics.validate_properties.samples": "higher",
    "diagnostics.validate_properties.basin_checks": "higher",
}


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.on = False
        self.spans = []  # (name, parent index or -1, start, duration)
        self.counts = defaultdict(int)
        self._stack = []  # [span index, name, start] of the open spans

    def current(self):
        return self._stack[-1][1] if self._stack else None

    def open(self, name):
        if self._stack and self._stack[-1][1] == name:
            return False
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, parent, 0.0, 0.0))
        self._stack.append([len(self.spans) - 1, name, time.perf_counter()])
        return True

    def close(self):
        idx, name, start = self._stack.pop()
        self.spans[idx] = (name, self.spans[idx][1], start, time.perf_counter() - start)

    def count(self, name, k=1):
        self.counts[name] += k

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name` (pass-through when off)."""
        if not self.on or not self.open(name):
            return fn(*args, **kwargs)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    # -- summaries ----------------------------------------------------------

    def summary(self):
        """Per-name calls, total and self seconds over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, parent, _start, dur in self.spans:
            if parent >= 0:
                child[parent] += dur
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, _parent, _start, dur) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
        return dict(out)

    def write(self, path):
        """Write every span as one JSON line: [name, parent, start, duration]."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for name, parent, start, dur in self.spans:
                fh.write(json.dumps([name, parent, round(start - t0, 9), round(dur, 9)]) + "\n")


def _precision(args, kwargs):
    if "precision" in kwargs:
        return kwargs["precision"]
    return args[1] if len(args) > 1 else "binary64"


class Instrumentation:
    """Installs and removes the span wrappers for one Tracer."""

    def __init__(self, tracer):
        self.t = tracer
        self._undo = []
        self._problems = []

    # -- generic wrappers ---------------------------------------------------

    def _span(self, name, fn, after=None):
        t = self.t

        def traced(*args, **kwargs):
            out = t.call(name, fn, *args, **kwargs)
            if after is not None and t.on:
                after(out, args, kwargs)
            return out

        return traced

    def _patch(self, owner, attr, wrapper):
        had = attr in vars(owner)
        self._undo.append((owner, attr, getattr(owner, attr), had))
        setattr(owner, attr, wrapper)

    def _patch_fn(self, owner, attr, name, after=None):
        self._patch(owner, attr, self._span(name, getattr(owner, attr), after))

    # -- specialised wrappers -------------------------------------------------

    def _lanczos(self, name, orig):
        t = self.t

        def traced(apply_t, *args, **kwargs):
            if not t.on:
                return orig(apply_t, *args, **kwargs)
            steps = [name + ".steps"]
            if t.current() == "problems.reference_eigs":
                steps.append("problems.reference_eigs.steps")

            def counted(v):
                for key in steps:
                    t.count(key)
                return apply_t(v)

            return t.call(name, orig, counted, *args, **kwargs)

        return traced

    def _cholesky(self, orig):
        t = self.t

        def traced(*args, **kwargs):
            return t.call("linalg.cholesky." + _precision(args, kwargs), orig, *args, **kwargs)

        return traced

    def _dense_sym_eig(self, orig):
        t = self.t

        def traced(*args, **kwargs):
            where = "oracle" if t.current() == "diagnostics.validate_properties" else "kappa_nu"
            return t.call("linalg.dense_sym_eig." + where, orig, *args, **kwargs)

        return traced

    def _kappa_nu(self, orig):
        t = self.t

        def traced(*args, **kwargs):
            if not t.on:
                return orig(*args, **kwargs)
            before = t.counts["linalg.lanczos_extremal.steps"]
            out = t.call("diagnostics.kappa_nu", orig, *args, **kwargs)
            lanczos = t.counts["linalg.lanczos_extremal.steps"] > before
            t.count("diagnostics.kappa_nu." + ("lanczos_route" if lanczos else "dense_route"))
            return out

        return traced

    def _fwd_iterative(self, orig):
        t = self.t

        def traced(*args, **kwargs):
            if t.on:
                parent = t.current()
                if parent in ("solvers.rsd_solve", "diagnostics.build_rate_context"):
                    t.count("precond.apply_fwd_iterative.in_" + parent.split(".")[1])
            return t.call("precond.apply_fwd_iterative", orig, *args, **kwargs)

        return traced

    def _solver_method(self, orig):
        span = self._span

        def solver(problem):
            return span("problems.solve_a", orig(problem))

        return solver

    # -- install / uninstall --------------------------------------------------

    def install(self):
        t = self.t
        diag = diagnostics

        # Functions are patched where the caller looks them up: a module that
        # did `from .x import f` holds its own binding of f.
        def count_checks(report, args, kwargs):
            t.count("diagnostics.validate_properties.checks", sum(report.checked.values()))
            t.count("diagnostics.validate_properties.samples", report.n_samples)
            t.count("diagnostics.validate_properties.basin_checks", report.checked.get("v", 0))

        def count_iters(result, args, kwargs):
            t.count("solvers.rsd_solve.iterations", result.iterations)

        def count_pcg(result, args, kwargs):
            t.count("linalg.pcg.iters", result[1])

        def count_draws(result, args, kwargs):
            t.count("linalg.Rng.normal.draws", len(result))

        for attr in ("build_problem", "build_precond"):
            self._patch_fn(cli, attr, "cli." + attr)
        for attr in ("build_rate_context", "success_probability", "random_spd_pair", "check_initial"):
            self._patch_fn(diag, attr, "diagnostics." + attr)
        self._patch_fn(diag, "validate_properties", "diagnostics.validate_properties", count_checks)
        self._patch(diag, "kappa_nu", self._kappa_nu(diag.kappa_nu))
        self._patch(diag, "dense_sym_eig", self._dense_sym_eig(diag.dense_sym_eig))
        self._patch(diag, "lanczos_extremal", self._lanczos("linalg.lanczos_extremal", diag.lanczos_extremal))
        self._patch_fn(solvers, "rsd_solve", "solvers.rsd_solve", count_iters)
        self._patch_fn(solvers, "make_state", "geometry.make_state")
        for owner in (diag, solvers, precond):
            self._patch(owner, "apply_fwd_iterative", self._fwd_iterative(owner.apply_fwd_iterative))
        self._patch_fn(precond, "make_mp_cholesky", "precond.make_mp_cholesky")
        self._patch_fn(precond, "pcg", "linalg.pcg", count_pcg)
        self._patch_fn(problems, "reference_eigs", "problems.reference_eigs")
        for attr in ("lanczos_top_pairs", "lanczos_extremal"):
            self._patch(problems, attr, self._lanczos("linalg." + attr, getattr(problems, attr)))
        for owner in (linalg, precond, problems):
            self._patch(owner, "cholesky", self._cholesky(owner.cholesky))
        self._patch(problems.EigenProblem, "solver", self._solver_method(problems.EigenProblem.solver))
        self._patch_fn(linalg.Rng, "normal", "linalg.Rng.normal", count_draws)
        for attr in ("solve", "solve_t", "mult", "mult_t"):
            self._patch_fn(linalg.SymFactor, attr, "linalg.SymFactor." + attr)
        for cls in vars(precond).values():
            if not (isinstance(cls, type) and issubclass(cls, precond.Preconditioner)):
                continue
            ddm = cls is precond.DdmPreconditioner
            if "apply_inv" in vars(cls):
                name = "precond.DdmPreconditioner.apply_inv" if ddm else "precond.apply_inv"
                self._patch_fn(cls, "apply_inv", name)
            if "apply_inv_exact" in vars(cls):
                self._patch_fn(cls, "apply_inv_exact", "precond.apply_inv_exact")
        self._patch_fn(precond.DdmPreconditioner, "coarse_part", "precond.DdmPreconditioner.coarse_part")
        for problem in self._problems:
            self._wrap_problem(problem)

    def uninstall(self):
        while self._undo:
            owner, attr, orig, had = self._undo.pop()
            if had:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    def _wrap_problem(self, problem):
        self._patch(problem, "apply_a", self._span("problems.apply_a", problem.apply_a))

    def watch(self, problem):
        """Trace `problem.apply_a` while installed, now and after re-installs."""
        self._problems.append(problem)
        if self._undo:
            self._wrap_problem(problem)


def span_cost_s(calls=20000, repeats=5):
    """Seconds one span wrapper adds to a call: a no-op called through the
    wrapper minus the bare no-op, per call (median of `repeats`)."""
    tracer = Tracer()
    tracer.on = True

    def noop():
        return None

    wrapped = Instrumentation(tracer)._span("calibration", noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
        tracer.spans.clear()
    return max(sorted(costs)[repeats // 2], 0.0)


class NoInstrumentation:
    """Stand-in used by untraced runs."""

    def watch(self, problem):
        pass


def per_layer_spec():
    """The per-layer metrics, in the form BENCHMARK.json lists them."""
    spec = []
    for name in LAYERS:
        spec.append({"name": name + ".calls", "unit": "count", "better": "lower"})
        spec.append({"name": name + ".self_pct", "unit": "%", "better": "lower"})
    spec.append({"name": OTHER + ".self_pct", "unit": "%", "better": "lower"})
    for name, better in COUNTERS.items():
        spec.append({"name": name, "unit": "count", "better": better})
    spec.append({"name": "pcg.iters_per_fwd", "unit": "iters/call", "better": "lower"})
    spec.append({"name": "basin_checks_per_sample", "unit": "checks/sample", "better": "higher"})
    spec.append({"name": "trace.total_s", "unit": "s", "better": "lower"})
    spec.append({"name": "trace.overhead_s", "unit": "s", "better": "lower"})
    spec.append({"name": "trace.span_cost_s", "unit": "s", "better": "lower"})
    return spec


def layer_metrics(tracer, total_s):
    """Per-layer calls and self-time shares (percent of the traced time)."""
    summary = tracer.summary()
    out = {}
    layer_self = 0.0
    for name in LAYERS:
        rec = summary.get(name, {"calls": 0, "self_s": 0.0})
        out[name + ".calls"] = rec["calls"]
        out[name + ".self_pct"] = 100.0 * rec["self_s"] / total_s
        layer_self += rec["self_s"]
    out[OTHER + ".self_pct"] = 100.0 * (total_s - layer_self) / total_s
    for name in COUNTERS:
        out[name] = tracer.counts.get(name, 0)
    fwd = out["precond.apply_fwd_iterative.calls"]
    out["pcg.iters_per_fwd"] = out["linalg.pcg.iters"] / fwd if fwd else 0.0
    samples = out["diagnostics.validate_properties.samples"]
    out["basin_checks_per_sample"] = (
        out["diagnostics.validate_properties.basin_checks"] / samples if samples else 0.0
    )
    unknown = set(summary) - set(LAYERS)
    if unknown:
        raise RuntimeError(f"spans with no layer row: {sorted(unknown)}")
    return out, summary
