"""The benchmark's workloads: inputs derived from the workload seed, one
timed operation at a time, and a correctness gate on every operation.

Every workload calls only the public functions that the `solve`, `table
--name prob-kernel` and `validate` commands use.  Operations run one after
another on one thread, so neither `EIG_THREADS` nor the thread pool of
`precondeig table` is involved.

A workload has `prepare` (state its operations need), `setup_once` (the
set-up step whose median time over repeats is `setup_s`), `op(k, inst)`
(run operation k) and `check(op)` (the gate; returns the problems it
found).  `fixed_ops` is the number of operations a run makes, or None
where operations run for `--seconds`; `setup_repeats` is the number of
set-ups in a run.
"""

import ctypes
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from precondeig import cli, diagnostics, linalg, precond, solvers
from precondeig.errors import PrecondEigError

# Kernel and instance seeds of a run with workload seed s are
# seed_base + j + STRIDE * s for j = 0, 1, ...; runs draw far fewer than
# STRIDE inputs.
STRIDE = 1000


@dataclass
class Op:
    label: str  # the inputs, e.g. "start_seed=3"
    time_s: float  # wall time of the operation's calls into the program
    units: list  # times of the units the timing metrics are taken over
    ok: bool = True
    detail: str = ""  # why the gate failed
    signature: tuple = ()  # result summary a traced re-run must reproduce
    extra: dict = field(default_factory=dict)


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim  # glibc
except AttributeError:
    def _malloc_trim(pad):
        return 0


def cold_import_s(root):
    """Seconds for a fresh interpreter to start and import precondeig.

    No timeout: with one, the wait polls and rounds the time up to its
    polling step."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import precondeig"], cwd=root, env=env, check=True)
    return time.perf_counter() - t0


def _raised(label, t0, exc):
    return Op(label, time.perf_counter() - t0, [], False, f"{type(exc).__name__}: {exc}")


class SolveDdm:
    """One set-up (problem, lifted DDM, rate context), then solves to
    tolerance from smooth starts.  The operation and the timed unit is a
    whole solve, so the timings follow both the cost of an iteration and the
    number of iterations.

    A solve's iteration count follows its start (205 to 899 iterations over
    start seeds 0-21), so every run solves the same START_SEEDS in the same
    order, whatever the workload seed.  The run's length is set by those
    solves, not by `--seconds`.  The four starts take 450 to 482 iterations,
    so op_p50_s is the median of like solves; together they spread the timed
    solves over half a minute, so a few seconds of a slow host weigh less,
    and keep the run, with its three set-ups, about a minute.

    The solves run on the last of the set-ups, in the process's steady
    state.  In a fresh process, until the first set-up is freed, set-up and
    iterations take about 1.7 times as long; a fixed MALLOC_MMAP_THRESHOLD_
    removes the difference, so it comes from glibc serving large temporaries
    with fresh mappings until a large free raises its dynamic mmap
    threshold.  A one-shot `precondeig solve` pays that; the first set-up's
    time is in the result file's setup_samples_s."""

    name = "solve-ddm"
    why = (
        "headline u-space solve at h=2^-6 (n=3969): A applies go through banded R solves, "
        "B^-1 through DDM local and coarse solves, renormalisation through nested PCG"
    )
    PRECOND = "ddm:H=2^-2,overlap=0.5"
    TOL = 1e-8
    START_SEEDS = (0, 3, 9, 11)
    fixed_ops = len(START_SEEDS)
    trace_ops = 1
    setup_repeats = 3

    def __init__(self, seed, root, problem="laplace-fem:h=2^-6", maxit=2000):
        # seed and root are unused: the starts are fixed and nothing is imported afresh.
        self.problem_recipe = problem
        self.maxit = maxit
        self.problem = self.precond = self.ctx = None

    def prepare(self, inst):
        # Drop the previous set-up and hand its freed heap back first, so the
        # peak memory holds one set-up, not the harness's repeats of it.
        self.problem = self.precond = self.ctx = None
        _malloc_trim(0)
        self.problem = cli.build_problem(self.problem_recipe)
        inst.watch(self.problem)
        self.precond = cli.build_precond(self.PRECOND, self.problem)
        self.ctx = diagnostics.build_rate_context(self.problem, self.precond)

    def setup_once(self, inst):
        self.prepare(inst)

    def op(self, k, inst):
        start = self.START_SEEDS[k]
        label = f"start_seed={start}"
        stamps = []
        t0 = time.perf_counter()
        try:
            u0 = self.precond.apply_inv(linalg.gaussian_vector(linalg.Rng(start), self.problem.dim))
            res = solvers.rsd_solve(
                self.problem, self.precond, u0, solvers.StepPolicy.theory(),
                tol=self.TOL, maxit=self.maxit, ctx=self.ctx,
                callback=lambda t, state: stamps.append(time.perf_counter()),
            )
        except PrecondEigError as exc:
            return _raised(label, t0, exc)
        dt = time.perf_counter() - t0
        return Op(label, dt, [dt], signature=(res.iterations, res.reason),
                  extra={"result": res, "iter_s": list(np.diff(stamps))})

    def check(self, op):
        res = op.extra.pop("result")
        op.extra.update(iterations=res.iterations, reason=res.reason)
        u = res.u
        au = self.problem.apply_a(u)
        uu = float(u @ u)
        lam = float(u @ au) / uu
        rel_res = float(np.linalg.norm(au - lam * u)) / (lam * np.sqrt(uu))
        lam_err = abs(res.lam - self.ctx.lam1) / self.ctx.lam1
        problems = []
        if res.reason != "ResidualTol":
            problems.append(f"stopped with {res.reason} after {res.iterations} iterations")
        if not rel_res <= self.TOL:
            problems.append(f"recomputed residual {rel_res:.3e} > tol {self.TOL:g}")
        if not lam_err <= 1e-12:
            problems.append(f"|lambda - lambda1|/lambda1 = {lam_err:.3e} > 1e-12")
        return problems


class ProbKernel:
    """Kernel success-probability table, one of the two parts of `dense`:
    per kernel seed, one cell per size (kernel matrix, binary32 Cholesky,
    rate context, gaussian trials).

    The table is the n=128 cell alone.  The `precondeig table` default also
    has n=256, where `kappa_nu` takes its Lanczos route; that route applies
    B^-1 in binary32, so its kappa - 1 comes out about 7 times the pencil
    eigensolve's (8e-7 against 1.2e-7) and the kappa gate fails on some
    kernel seeds (10011 is one).  A workload must not fail, so that cell is
    left out until `kappa_nu` is fixed; the self-tests keep it as an
    expected failure."""

    name = "prob-kernel"
    seed_base = 7  # the kernel seed of `precondeig table --name prob-kernel`
    TRIALS = 200

    def __init__(self, seed, sizes=(128,)):
        self.seed = seed
        self.sizes = tuple(sizes)

    def op(self, k, inst):
        kernel_seed = self.seed_base + k + STRIDE * self.seed
        label = f"kernel_seed={kernel_seed}"
        cells = []
        t0 = time.perf_counter()
        try:
            for n in self.sizes:
                problem = cli.build_problem(f"kernel-laplace:n={n},seed={kernel_seed}")
                inst.watch(problem)
                p = precond.make_mp_cholesky(problem.dense())
                ctx = diagnostics.build_rate_context(problem, p)
                trial_seed = linalg.spawn_seed(kernel_seed, linalg.hash_label(f"prob-kernel:{n}"))
                rep = diagnostics.success_probability(
                    problem, p, "gaussian", self.TRIALS, trial_seed, ctx=ctx
                )
                cells.append((n, problem, p, ctx, rep))
        except PrecondEigError as exc:
            return _raised(label, t0, exc)
        dt = time.perf_counter() - t0
        signature = tuple((c[0], c[4]["successes_new"], c[4]["successes_classic"]) for c in cells)
        return Op(label, dt, [dt], signature=signature, extra={"cells": cells})

    def check(self, op):
        problems = []
        for n, problem, p, ctx, rep in op.extra.pop("cells"):
            a = problem.dense()
            lam1 = float(np.linalg.eigvalsh(a)[0])
            if not abs(ctx.lam1 - lam1) <= 1e-10 * abs(lam1):
                problems.append(f"n={n}: lambda1 {ctx.lam1!r} vs eigvalsh {lam1!r}")
            l64 = p.factor.l.astype(np.float64)
            nu = scipy.linalg.eigh(a, l64 @ l64.T, eigvals_only=True)
            kappa = float(nu[-1] / nu[0])
            if not abs(ctx.kappa - kappa) <= 1e-6 * kappa:
                problems.append(f"n={n}: kappa {ctx.kappa!r} vs pencil eigh {kappa!r}")
            if rep["trials"] != self.TRIALS:
                problems.append(f"n={n}: {rep['trials']} trials, not {self.TRIALS}")
            for key in ("successes_new", "successes_classic"):
                if not 0 <= rep[key] <= self.TRIALS:
                    problems.append(f"n={n}: {key}={rep[key]} outside [0, {self.TRIALS}]")
        return problems


# `precondeig validate` also runs B = mp-chol.  There check (v) fails on
# about one n=6 instance in eight and now and then at n=12 (seed=13,n=6 and
# seed=2025,n=12 are two): the program's cos phi loses most of its digits to
# cancellation when kappa - 1 is about 1e-7.  A workload must not fail, so
# the benchmark runs the other two B until that is fixed; the self-tests keep
# the seed-13 instance as an expected failure.
VALIDATE_KINDS = ("identity", "random-spd")


class Validate:
    """Property-validation grid, one of the two parts of `dense`: per
    instance seed, an instance of every size with every B."""

    name = "validate"
    seed_base = 0  # the first instance seed of `precondeig validate`
    SAMPLES = 500

    def __init__(self, seed, sizes=(6, 12, 20), kinds=VALIDATE_KINDS, inject_bug=None):
        self.seed = seed
        self.sizes = tuple(sizes)
        self.kinds = tuple(kinds)
        self.inject_bug = inject_bug

    def op(self, k, inst):
        iseed = self.seed_base + k + STRIDE * self.seed
        label = f"seed={iseed}"
        reports = []
        t0 = time.perf_counter()
        try:
            for n in self.sizes:
                a, b_rand = diagnostics.random_spd_pair(iseed, n)
                for kind in self.kinds:
                    if kind == "identity":
                        b = np.eye(n)
                    elif kind == "random-spd":
                        b = b_rand
                    else:
                        l64 = precond.make_mp_cholesky(a).factor.l.astype(np.float64)
                        b = l64 @ l64.T
                    reports.append(diagnostics.validate_properties(
                        a, b, n_samples=self.SAMPLES, seed=linalg.spawn_seed(iseed, n),
                        label=f"{label},n={n},B={kind}", inject_bug=self.inject_bug,
                    ))
        except PrecondEigError as exc:
            return _raised(label, t0, exc)
        dt = time.perf_counter() - t0
        signature = tuple((r.label, tuple(sorted(r.checked.items())), len(r.violations))
                          for r in reports)
        return Op(label, dt, [dt], signature=signature, extra={"reports": reports})

    def check(self, op):
        problems = []
        for report in op.extra.pop("reports"):
            problems += [f"{report.label}: check ({v['check']}) violated: {v['detail']}"
                         for v in report.violations]
            for key in ("i", "ii"):
                if report.checked.get(key) != self.SAMPLES:
                    problems.append(f"{report.label}: check ({key}) ran "
                                    f"{report.checked.get(key)} times, not {self.SAMPLES}")
        return problems


class Dense:
    """Small dense problems: operation k is the validate grid of instance
    seed k followed by the prob-kernel table of kernel seed k, both gated.
    The operation and the timed unit is the pair, so every unit holds the
    same mix of sizes, B and cells (a single instance's time follows its
    size, and the median of those would sit on the step between two sizes).

    The two parts share one workload so that each run can be long: on a
    shared host, speed moves by a third or more for seconds at a time, and
    a run's median steadies only with the square root of its length."""

    name = "dense"
    why = (
        "small dense problems: validate grid (n=6, 12, 20) and a prob-kernel cell (n=128): "
        "Jacobi kappa and oracle, Rng.normal, binary32 Cholesky; "
        "no sparse, banded or nested-PCG path"
    )
    fixed_ops = None
    trace_ops = 2
    setup_repeats = 9

    def __init__(self, seed, root, parts=None):
        self.root = root
        self.parts = parts or (Validate(seed), ProbKernel(seed))

    def prepare(self, inst):
        pass

    def setup_once(self, inst):
        cold_import_s(self.root)

    def op(self, k, inst):
        subs = [part.op(k, inst) for part in self.parts]
        dt = sum(sub.time_s for sub in subs)
        return Op("; ".join(sub.label for sub in subs), dt, [dt], all(sub.ok for sub in subs),
                  "; ".join(sub.detail for sub in subs if sub.detail),
                  signature=tuple(sub.signature for sub in subs),
                  extra={"subs": subs,
                         "part_s": {part.name: sub.time_s for part, sub in zip(self.parts, subs)}})

    def check(self, op):
        return [p for part, sub in zip(self.parts, op.extra.pop("subs")) for p in part.check(sub)]


WORKLOADS = {w.name: w for w in (SolveDdm, Dense)}
