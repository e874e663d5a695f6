"""Checks of the benchmark itself: the correctness gate bites, traced counts
repeat exactly, and the benchmark refuses to run without the program.

    python3 -m pytest -q perfbench/selftest.py

Tiny sizes keep this under a minute.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (pins BLAS threads before numpy is imported)

run.load_program()

import workloads  # noqa: E402
from precondeig.errors import NoConvergence  # noqa: E402
from spans import NoInstrumentation, per_layer_spec  # noqa: E402
from workloads import Dense, ProbKernel, SolveDdm, Validate  # noqa: E402

TINY_SOLVE = "laplace-fem:h=2^-4"


def tiny_dense(**validate_args):
    parts = (Validate(0, sizes=(6,), **validate_args), ProbKernel(0, sizes=(32,)))
    return Dense(0, run.ROOT, parts=parts)


def tiny_workloads():
    solve = SolveDdm(0, run.ROOT, problem=TINY_SOLVE)
    dense = tiny_dense()
    for w in (solve, dense):
        w.trace_ops = 1
    return solve, dense


def test_gate_counts_injected_validator_bug_as_failed():
    w = tiny_dense(inject_bug="a_x_sign")
    (op,) = run.run_ops(w, NoInstrumentation(), count=1)
    assert not op.ok
    assert "B=random-spd: check" in op.detail


def test_validate_mp_chol_still_fails_check_v():
    """The program's cos phi cancellation fails check (v) here, so the
    workload leaves B = mp-chol out.  Once this test fails, that is fixed:
    put mp-chol back into VALIDATE_KINDS and delete this test."""
    w = Validate(0, sizes=(6,), kinds=("mp-chol",))
    w.seed_base = 13
    (op,) = run.run_ops(w, NoInstrumentation(), count=1)
    assert op.label == "seed=13"
    assert not op.ok
    assert "seed=13,n=6,B=mp-chol: check (v) violated" in op.detail


def test_prob_kernel_n256_still_fails_kappa_gate():
    """kappa_nu's Lanczos route applies B^-1 in binary32, so kappa misses the
    pencil eigensolve's here and the workload leaves n=256 out.  Once this
    test fails, that is fixed: put 256 back into ProbKernel's sizes and
    delete this test."""
    w = ProbKernel(0, sizes=(256,))
    w.seed_base = 10011
    (op,) = run.run_ops(w, NoInstrumentation(), count=1)
    assert op.label == "kernel_seed=10011"
    assert not op.ok
    assert "vs pencil eigh" in op.detail


def test_gate_counts_max_iters_as_failed():
    w = SolveDdm(0, run.ROOT, problem=TINY_SOLVE, maxit=3)
    w.prepare(NoInstrumentation())
    (op,) = run.run_ops(w, NoInstrumentation(), count=1)
    assert not op.ok
    assert "MaxIters" in op.detail


def test_gate_counts_raised_error_as_failed(monkeypatch):
    w = SolveDdm(0, run.ROOT, problem=TINY_SOLVE)
    w.prepare(NoInstrumentation())

    def breaks(*args, **kwargs):
        raise NoConvergence("no convergence")

    monkeypatch.setattr(workloads.solvers, "rsd_solve", breaks)
    (op,) = run.run_ops(w, NoInstrumentation(), count=1)
    assert not op.ok
    assert op.detail.startswith("NoConvergence")


def test_solve_runs_the_fixed_starts_whatever_the_seed():
    for seed in (0, 1):
        ops, metrics, _ = run.measure(SolveDdm(seed, run.ROOT, problem=TINY_SOLVE), seconds=0)
        assert [op.label for op in ops] == [f"start_seed={s}" for s in SolveDdm.START_SEEDS]
        assert metrics["op_p50_s"] == statistics.median(op.time_s for op in ops)


@pytest.mark.parametrize("index", [0, 1])
def test_traced_counts_repeat_and_match_untraced(index):
    first = run.measure_traced(tiny_workloads()[index])
    second = run.measure_traced(tiny_workloads()[index])
    counts = [m["name"] for m in per_layer_spec() if m["unit"] == "count"]
    assert {k: first[1][k] for k in counts} == {k: second[1][k] for k in counts}
    # measure_traced fails an op whose traced result differs from its untraced run
    assert all(op.ok for op in first[0] + second[0])
    assert sum(first[1][k] for k in counts if k.endswith(".calls")) > 0


def test_traced_solve_iterations_equal_untraced():
    solve = tiny_workloads()[0]
    ops, metrics, _ = run.measure_traced(solve)
    untraced = SolveDdm(0, run.ROOT, problem=TINY_SOLVE)
    untraced.prepare(NoInstrumentation())
    (op,) = run.run_ops(untraced, NoInstrumentation(), count=1)
    assert op.ok
    assert metrics["solvers.rsd_solve.iterations"] == op.extra["iterations"] == ops[0].extra["iterations"]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.E2E_UNITS)
    assert [m["unit"] for m in bench["end_to_end"]] == list(run.E2E_UNITS.values())
    assert bench["per_layer"] == per_layer_spec()
    assert [w["name"] for w in bench["workloads"]] == list(run.NAMES)
    assert bench["run_seconds"] == run.DEFAULT_SECONDS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
