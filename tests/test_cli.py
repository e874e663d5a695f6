import json
from collections import Counter

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse.linalg

import precondeig as pe
from precondeig import cli, linalg, precond, problems, solvers
from precondeig.cli import _parse_step, build_problem, build_precond, main, parse_dyadic
from precondeig.errors import RecipeError


def test_parse_dyadic():
    assert parse_dyadic("2^-4") == 0.0625
    assert parse_dyadic("1/16") == 0.0625
    assert parse_dyadic("0.25") == 0.25
    for text in ("abc", "1/x", "nan", "1e999", "1/0", "2^99999"):
        with pytest.raises(RecipeError, match="is not a finite number"):
            parse_dyadic(text)


def test_build_problem_recipes():
    assert build_problem("laplace-fd:h=2^-3").dim == 49
    assert build_problem("laplace-fem:h=2^-3").dim == 49
    assert build_problem("kernel-laplace:n=16,seed=2").dim == 16
    with pytest.raises(RecipeError):
        build_problem("bogus:h=2^-3")
    # a missing required key names the recipe kind and the key
    for recipe, missing in [
        ("laplace-fd", "laplace-fd recipe is missing the key 'h'"),
        ("laplace-fem:", "laplace-fem recipe is missing the key 'h'"),
        ("kernel-laplace:seed=3", "kernel-laplace recipe is missing the key 'n'"),
    ]:
        with pytest.raises(RecipeError, match=missing):
            build_problem(recipe)
    # a key the recipe does not read, and a value that is not a number of the
    # kind the key takes, name the recipe kind and the key
    for recipe, message in [
        ("laplace-fd:h=2^-3,hh=3", "laplace-fd recipe does not read the key 'hh'; it reads 'h'"),
        ("laplace-fd:h=2^-3, h=2^-2", "laplace-fd recipe repeats the key 'h'"),
        ("kernel-laplace:n=16,sed=3", "kernel-laplace recipe does not read the key 'sed'"),
        ("kernel-laplace:n=abc", "kernel-laplace recipe key 'n': 'abc' is not an integer"),
        ("kernel-poly:n=16,d=2.5", "kernel-poly recipe key 'd': '2.5' is not an integer"),
        ("kernel-laplace:n=16,seed=x", "kernel-laplace recipe key 'seed': 'x' is not an integer"),
        ("kernel-laplace:n=16,tau=x", "kernel-laplace recipe key 'tau': 'x' is not a finite number"),
        ("laplace-fd:h", "expected key=value, got 'h'"),
    ]:
        with pytest.raises(RecipeError, match=message):
            build_problem(recipe)
    # tau is read like h
    assert np.array_equal(
        build_problem("kernel-laplace:n=8,tau=2^-3").matrix,
        build_problem("kernel-laplace:n=8,tau=0.125").matrix,
    )


def test_build_precond_recipes():
    prob = build_problem("laplace-fd:h=2^-3")
    v = np.arange(1.0, prob.dim + 1.0)
    assert np.array_equal(build_precond("identity", prob).apply_inv(v), v)
    exact = build_precond("exact", prob)
    assert np.linalg.norm(prob.apply_a(exact.apply_inv(v)) - v) <= 1e-12 * np.linalg.norm(v)
    assert build_precond("ddm:H=2^-1,overlap=0.5", prob).fwd_mode == "iterative"
    scaled = build_precond("scaled:identity", prob)
    assert type(scaled) is precond.ScaledPreconditioner
    assert np.array_equal(scaled.inner.apply_inv(v), v)
    with pytest.raises(RecipeError):
        build_precond("nope", prob)
    with pytest.raises(RecipeError, match="ddm recipe is missing the key 'H'"):
        build_precond("ddm:overlap=0.5", prob)
    # a value that is not a number names the recipe kind and the key
    for recipe, key in [("ddm:H=abc", "H"), ("ddm:H=2^-2,overlap=abc", "overlap")]:
        with pytest.raises(RecipeError, match=f"ddm recipe key '{key}': 'abc' is not a finite number"):
            build_precond(recipe, prob)
    # a key the recipe does not read names the recipe kind and the key
    for recipe, message in [
        ("ddm:H=2^-1,overlp=0.25", "ddm recipe does not read the key 'overlp'; it reads 'H', 'overlap'"),
        ("identity:foo=1", "identity recipe does not read the key 'foo'; it reads no keys"),
        ("exact:foo=1", "exact recipe does not read the key 'foo'"),
        ("mp-chol:foo=1", "mp-chol recipe does not read the key 'foo'"),
    ]:
        with pytest.raises(RecipeError, match=message):
            build_precond(recipe, prob)


def test_step_arguments_name_the_policy():
    assert _parse_step("const:1/4").value == _parse_step("const").value == 0.25
    assert _parse_step("fixed:2^-3").value == 0.125
    for text, message in [
        ("const:abc", "const recipe key 'c': 'abc' is not a finite number"),
        ("fixed:abc", "fixed recipe key 'value': 'abc' is not a finite number"),
        ("bogus", "unknown step policy 'bogus'"),
    ]:
        with pytest.raises(RecipeError, match=message):
            _parse_step(text)


def test_bad_step_exits_1_before_the_set_up(monkeypatch, capsys):
    def refuse(recipe):
        raise AssertionError(f"built {recipe} before the step was read")

    monkeypatch.setattr(cli, "build_problem", refuse)
    argv = ["solve", "--problem", "laplace-fem:h=2^-6", "--precond", "ddm:H=2^-2", "--step", "const:abc"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: const recipe key 'c': 'abc' is not a finite number\n"


def test_ddm_overlap_takes_a_fraction(capsys):
    # overlap is read like H, so 1/2 is the same recipe as 0.5
    payloads = []
    for recipe in ("ddm:H=2^-2,overlap=1/2", "ddm:H=2^-2,overlap=0.5"):
        assert main(["phi", "--problem", "laplace-fem:h=2^-4", "--precond", recipe]) == 0
        text = capsys.readouterr().out
        payload = json.loads(text[: text.rindex("}") + 1])
        assert payload.pop("precond") == recipe
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def test_solve_happy_path(tmp_path):
    trace = tmp_path / "trace.csv"
    result = tmp_path / "result.json"
    code = main(
        [
            "solve",
            "--problem", "laplace-fd:h=2^-3",
            "--precond", "ddm:H=2^-1,overlap=0.5",
            "--step", "theory",
            "--tol", "1e-8",
            "--seed", "1",
            "--trace", str(trace),
            "--result", str(result),
        ]
    )
    assert code == 0
    payload = json.loads(result.read_text())
    assert payload["reason"] == "ResidualTol"
    assert payload["lambda_rel_err"] <= 1e-8
    header = trace.read_text().splitlines()[0]
    assert header == "t,lambda,f,resnorm,distB,eta,eta_star,beta,xi,contraction"


def test_solve_trace_bit_stable(tmp_path):
    args = [
        "solve",
        "--problem", "laplace-fd:h=2^-3",
        "--precond", "exact",
        "--step", "pinvit",
        "--tol", "1e-10",
        "--seed", "3",
    ]
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--trace", str(t1)]) == 0
    assert main(args + ["--trace", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_solve_pinvit_implicit_b_traces_dist_b(tmp_path):
    trace, result = tmp_path / "trace.csv", tmp_path / "result.json"
    code = main(
        [
            "solve",
            "--problem", "laplace-fem:h=2^-4",
            "--precond", "scaled:ddm:H=2^-2",
            "--step", "pinvit",
            "--trace", str(trace),
            "--result", str(result),
        ]
    )
    assert code == 0
    payload = json.loads(result.read_text())
    assert payload["reason"] == "ResidualTol"
    assert "method" not in payload and payload["lambda_rel_err"] <= 1e-8
    rows = trace.read_text().splitlines()
    dist_b = np.array([float(line.split(",")[4]) for line in rows[1:]])
    assert len(dist_b) == payload["iterations"] + 1
    # traced down to its resolution floor, and NaN from there on
    above = np.count_nonzero(np.isfinite(dist_b))
    assert 0 < above < len(dist_b) and np.all(np.isfinite(dist_b[:above]))
    assert np.all(dist_b[:above] >= solvers._DIST_B_FLOOR)


def test_solve_missing_matrix_file():
    assert main(["solve", "--problem", "mtx:missing.mtx", "--precond", "identity"]) == 1


def test_solve_step_cap_violated():
    code = main(
        [
            "solve",
            "--problem", "laplace-fd:h=2^-3",
            "--precond", "identity",
            "--step", "fixed:1e9",
            "--seed", "2",
        ]
    )
    assert code == 1


@pytest.mark.parametrize("h, seed", [("2^-4", 1), ("2^-4", 2), ("2^-5", 2)])
def test_solve_fem_ddm_converges_without_stagnating(tmp_path, h, seed):
    # lambda is flat to 1e-15 long before the zig-zagging residual reaches
    # tol; a guard that wants a new best residual on every step ended these
    # converging runs as StagnatedStep (exit 2)
    result = tmp_path / "result.json"
    code = main(
        [
            "solve",
            "--problem", f"laplace-fem:h={h}",
            "--precond", "ddm:H=2^-2",
            "--seed", str(seed),
            "--result", str(result),
        ]
    )
    assert code == 0
    assert json.loads(result.read_text())["reason"] == "ResidualTol"


def test_solve_stagnation_trigger_in_json(tmp_path):
    result = tmp_path / "result.json"
    code = main(
        [
            "solve",
            "--problem", "laplace-fd:h=2^-3",
            "--precond", "ddm:H=2^-1,overlap=0.5",
            "--tol", "0",
            "--seed", "1",
            "--result", str(result),
        ]
    )
    assert code == 2
    payload = json.loads(result.read_text())
    assert payload["reason"] == "StagnatedStep"
    t, name, trigger = payload["events"][-1]
    assert (t, name) == (payload["iterations"], "StagnatedStep")
    assert trigger["flat_steps"] >= 30
    assert trigger["window_best"] >= 0.9 * trigger["best_before"]
    assert all(len(e) == 2 for e in payload["events"][:-1])  # [t, "BasinExit" or "BasinEntry"]


def test_solve_mtx_roundtrip(tmp_path):
    prob = pe.laplace_fd(1.0 / 8.0)
    path = tmp_path / "fd.mtx"
    scipy.io.mmwrite(str(path), prob.matrix, symmetry="symmetric", precision=17)
    code = main(
        [
            "solve",
            "--problem", f"mtx:{path}",
            "--precond", "exact",
            "--step", "pinvit",
            "--tol", "1e-9",
        ]
    )
    assert code == 0


def test_solve_from_a_gaussian_start(tmp_path):
    result = tmp_path / "result.json"
    argv = ["solve", "--problem", "laplace-fd:h=2^-3", "--precond", "exact", "--step", "pinvit"]
    assert main(argv + ["--init", "gaussian", "--result", str(result)]) == 0
    payload = json.loads(result.read_text())
    assert payload["reason"] == "ResidualTol" and payload["lambda_rel_err"] <= 1e-8


def test_solve_from_the_reference_eigenvector_stops_at_once(tmp_path):
    result = tmp_path / "result.json"
    argv = ["solve", "--problem", "laplace-fd:h=2^-3", "--precond", "identity", "--init", "eigvec"]
    assert main(argv + ["--result", str(result)]) == 0
    payload = json.loads(result.read_text())
    assert (payload["reason"], payload["iterations"]) == ("ResidualTol", 0)
    assert payload["lambda"] == payload["lambda_ref"]


def write_fem_pencil(tmp_path):
    """The P1 stiffness and mass at h = 2^-3 as two MatrixMarket files."""
    paths = tmp_path / "k.mtx", tmp_path / "m.mtx"
    for path, matrix in zip(paths, pe.fem_p1(2.0**-3)):
        scipy.io.mmwrite(str(path), matrix, symmetry="symmetric", precision=17)
    return paths


def test_mtx_pencil_lambda1_matches_lapack(tmp_path):
    k_path, m_path = write_fem_pencil(tmp_path)
    lam1 = build_problem(f"mtx:{k_path},mass={m_path}").reference().lam1
    k, m = (pe.read_matrix(path).toarray() for path in (k_path, m_path))
    expected = scipy.linalg.eigh(k, m, eigvals_only=True)[0]
    assert abs(lam1 - expected) <= 1e-12 * expected


def test_mtx_pencil_lambdan_matches_lapack(tmp_path):
    # lambdan of a pencil comes from the Lanczos on (sigma M - K)^{-1} M
    k_path, m_path = write_fem_pencil(tmp_path)
    lamn = build_problem(f"mtx:{k_path},mass={m_path}").reference().lamn
    k, m = (pe.read_matrix(path).toarray() for path in (k_path, m_path))
    expected = scipy.linalg.eigh(k, m, eigvals_only=True)[-1]
    assert abs(lamn - expected) <= 1e-12 * expected


def test_ddm_on_an_mtx_problem_exits_1_with_one_error_line(tmp_path, capsys):
    k_path, _ = write_fem_pencil(tmp_path)
    assert main(["phi", "--problem", f"mtx:{k_path}", "--precond", "ddm:H=2^-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: ddm preconditioner needs a mesh problem (laplace-fd/laplace-fem)\n"
    )


def test_an_allocation_refused_by_the_system_exits_1_with_one_error_line(monkeypatch, capsys):
    # a grid that passes the index-range check but not the memory at hand;
    # the refusal is faked, since under some overcommit settings a real one
    # gets the process killed instead
    def refuse(h):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(problems, "interior_coords", refuse)
    assert main(["phi", "--problem", "laplace-fd:h=2^-20", "--precond", "identity"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: Unable to allocate 8.00 TiB for an array\n"


@pytest.mark.parametrize(
    "body, message",
    [
        (
            "%%MatrixMarket matrix coordinate real general\n3 2 2\n1 1 1.0\n2 2 2.0\n",
            r"the matrix is not square and symmetric \(shape \(3, 2\)\)",
        ),
        (
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 2.0\n2 2 2.0\n1 2 1.0\n",
            "the matrix is not square and symmetric",
        ),
        (
            "%%MatrixMarket matrix array real general\n2 2\n2.0\n1.0\n0.0\n2.0\n",
            "the matrix is not square and symmetric",
        ),
    ],
    ids=["not-square", "coordinate-unsymmetric", "array-unsymmetric"],
)
@pytest.mark.parametrize("role", ["matrix", "mass"])
def test_mtx_refuses_a_matrix_that_is_not_square_and_symmetric(tmp_path, body, message, role):
    # the solvers need an SPD matrix and an SPD mass: a matrix that is not
    # even square and symmetric is refused by name before any of them runs
    bad = tmp_path / "bad.mtx"
    bad.write_text(body)
    recipe = f"mtx:{bad}"
    if role == "mass":
        recipe = f"mtx:{write_fem_pencil(tmp_path)[0]},mass={bad}"
    with pytest.raises(RecipeError, match=f"{bad}: {message}"):
        build_problem(recipe)


def write_diag(path, d):
    scipy.io.mmwrite(str(path), scipy.sparse.diags(d).tocoo(), symmetry="symmetric", precision=17)


@pytest.mark.parametrize("role", ["matrix", "matrix-with-mass", "mass"])
def test_mtx_refuses_a_matrix_that_is_not_positive_definite(tmp_path, capsys, role):
    # D = diag(-1, 1, 2, ..., 299): its LU and the Lanczos on D^{-1} raise
    # nothing, and prob ran on lambda1 = 1, D's smallest positive eigenvalue
    d_path, i_path = tmp_path / "d.mtx", tmp_path / "i.mtx"
    write_diag(d_path, np.r_[-1.0, np.arange(1.0, 300.0)])
    write_diag(i_path, np.ones(300))
    recipe = {
        "matrix": f"mtx:{d_path}",
        "matrix-with-mass": f"mtx:{d_path},mass={i_path}",
        "mass": f"mtx:{i_path},mass={d_path}",
    }[role]
    assert main(["prob", "--problem", recipe, "--precond", "exact", "--trials", "10"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {d_path}: the matrix is not positive definite\n")


def test_mtx_refuses_an_array_file_that_is_not_positive_definite(tmp_path):
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n2.0\n1.0\n")
    with pytest.raises(RecipeError, match=f"{bad}: the matrix is not positive definite"):
        build_problem(f"mtx:{bad}")


DIAG_3 = "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 {0}\n2 2 {1}\n3 3 {2}\n"
SOLVE_5 = ["solve", "--step", "fixed:0.01", "--init", "gaussian", "--maxit", "5"]


@pytest.mark.parametrize(
    "body, command",
    [
        (DIAG_3.format("1e200", "2e200", "3e200"), SOLVE_5),
        (DIAG_3.format("1e200", "2e200", "3e200"), ["phi"]),
        (DIAG_3.format("1e-200", "2e-200", "3e-200"), SOLVE_5),
        (DIAG_3.format("1e-200", "2e-200", "3e-200"), ["phi"]),
        ("%%MatrixMarket matrix array real symmetric\n0 0\n", ["phi"]),
    ],
    ids=["solve-huge", "phi-huge", "solve-tiny", "phi-tiny", "phi-zero-size"],
)
def test_mtx_of_a_scale_outside_1e150_exits_1_with_one_error_line(tmp_path, capsys, body, command):
    # each ended in a traceback (OverflowError, ZeroDivisionError, IndexError)
    # or a RuntimeWarning and a foreign LAPACK message; the file is refused
    # as kernel_matrix refuses a shift |tau| > 1e150
    path = tmp_path / "d.mtx"
    path.write_text(body)
    assert main([*command, "--problem", f"mtx:{path}", "--precond", "identity"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: the largest |entry| ")
    assert captured.err.endswith(" lies outside [1e-150, 1e150]\n") and captured.err.count("\n") == 1


def test_phi_exact_preconditioner(tmp_path, capsys):
    out = tmp_path / "q.json"
    code = main(
        ["phi", "--problem", "laplace-fd:h=2^-3", "--precond", "exact", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["cos2_phi"] <= 1e-12
    assert abs(payload["kappa_nu"] - 1.0) <= 1e-9
    assert payload["chi"] is None  # reported as n/a in the text table
    text = capsys.readouterr().out
    assert "n/a" in text


@pytest.mark.parametrize(
    "problem, recipe, counts",
    [
        ("kernel-laplace:n=40,seed=3", "exact", {"binary64": 1}),
        ("laplace-fd:h=2^-4", "exact", {}),
        ("kernel-laplace:n=40,seed=3", "mp-chol", {"binary64": 1, "binary32": 1}),
        ("mtx:{k}", "exact", {"splu": 1}),
        ("mtx:{k},mass={m}", "exact", {"splu": 1, "banded": 2}),
        ("laplace-fem:h=2^-4", "ddm:H=2^-2", {"splu": 1, "banded": 2}),
    ],
)
def test_phi_factors_each_matrix_once(tmp_path, monkeypatch, capsys, problem, recipe, counts):
    # B = A reuses the problem's own solve, which the reference eigensolve
    # also uses; kernel_matrix keeps the factor of its SPD check, and an mtx
    # file's definiteness is checked by the factor its problem keeps (the
    # mass by its banded SymFactor).  A grid stiffness is solved by fast
    # diagonalization with no factor, so a grid problem's one SuperLU is its
    # DDM's coarse matrix.  The only other banded factor is the shifted
    # sigma M - K of the reference's lambdan.
    k_path, m_path = write_fem_pencil(tmp_path)
    problem = problem.format(k=k_path, m=m_path)
    seen = Counter()
    for module in (linalg, precond, problems):

        def cholesky(m, precision="binary64", orig=module.cholesky):
            seen[precision] += 1
            return orig(m, precision)

        monkeypatch.setattr(module, "cholesky", cholesky)
    splu = scipy.sparse.linalg.splu

    def counted_splu(*args, **kwargs):
        seen["splu"] += 1
        return splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted_splu)
    cholesky_banded = scipy.linalg.cholesky_banded

    def counted_cholesky_banded(*args, **kwargs):
        seen["banded"] += 1
        return cholesky_banded(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", counted_cholesky_banded)
    assert main(["phi", "--problem", problem, "--precond", recipe]) == 0
    capsys.readouterr()
    assert dict(seen) == counts


def test_phi_mp_chol_reports_epsilon(capsys):
    code = main(["phi", "--problem", "kernel-laplace:n=32,seed=4", "--precond", "mp-chol"])
    assert code == 0
    text = capsys.readouterr().out
    assert "epsilon_l" in text and "sqrt(2 eps)" in text


def phi_json(tmp_path, problem, recipe):
    out = tmp_path / "phi.json"
    assert main(["phi", "--problem", problem, "--precond", recipe, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_phi_scaled_mp_chol_reports_epsilon(tmp_path, capsys):
    # scaling B leaves phi unchanged, and epsilon_l uses only n, lambda1, lambdan
    plain = phi_json(tmp_path, "kernel-laplace:n=32,seed=4", "mp-chol")
    scaled = phi_json(tmp_path, "kernel-laplace:n=32,seed=4", "scaled:mp-chol")
    for key in ("epsilon_l", "epsilon_l_applicable"):
        assert scaled[key] == plain[key]
    assert "sqrt(2 eps)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "problem, recipe",
    [
        ("kernel-laplace:n=32,seed=4", "identity"),
        ("kernel-laplace:n=32,seed=4", "exact"),
        ("laplace-fem:h=2^-3", "ddm:H=2^-1"),
    ],
)
def test_phi_reports_epsilon_only_for_mp_chol(tmp_path, capsys, problem, recipe):
    payload = phi_json(tmp_path, problem, recipe)
    assert "epsilon_l" not in payload and "epsilon_l_applicable" not in payload
    assert "sqrt(2 eps)" not in capsys.readouterr().out


def test_prob_deterministic_output(tmp_path):
    args = [
        "prob",
        "--problem", "kernel-laplace:n=32,seed=4",
        "--precond", "mp-chol",
        "--sampler", "gaussian",
        "--trials", "20",
        "--seed", "5",
    ]
    o1, o2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    assert main(args + ["--out", str(o1)]) == 0
    assert main(args + ["--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    lines = o1.read_text().splitlines()
    assert lines[0] == "condition,successes,trials,fraction"
    assert len(lines) == 3


def test_prob_eigvec_init_equivalent(capsys):
    # trials=1 with u0 = u* is exercised through check_initial directly
    prob = build_problem("laplace-fd:h=2^-3")
    p = build_precond("exact", prob)
    ctx = pe.build_rate_context(prob, p)
    rep = pe.check_initial(prob, p, ctx.u_star[None, :], ctx, u0_b_norm_sq=None)
    assert rep["condition_new"][0] and rep["condition_classic"][0]


def test_validate_quick_pass(tmp_path):
    out = tmp_path / "report.json"
    code = main(["validate", "--seeds", "1", "--sizes", "6", "--samples", "60", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["violation_count"] == 0


def test_validate_bug_exits_3(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "validate",
            "--seeds", "1",
            "--sizes", "6",
            "--samples", "40",
            "--inject-bug", "a_x_sign",
            "--out", str(out),
        ]
    )
    assert code == 3
    payload = json.loads(out.read_text())
    assert payload["violation_count"] > 0
    assert payload["violations"][0]["check"] in ("iii", "iv")


def test_validate_names_the_sizes_option_it_cannot_read(capsys):
    assert main(["validate", "--sizes", "6,x"]) == 1
    assert capsys.readouterr().err == "error: --sizes takes comma-separated integers, got '6,x'\n"


def test_table_unknown_name():
    assert main(["table", "--name", "nope"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["prob", "--problem", "kernel-laplace:n=16,seed=3", "--precond", "mp-chol", "--trials", "0"],
        ["prob", "--problem", "kernel-laplace:n=16,seed=3", "--precond", "mp-chol", "--trials", "-3"],
        ["table", "--name", "prob-kernel", "--trials", "0"],
        ["solve", "--problem", "laplace-fd:h=2^-3", "--precond", "identity", "--maxit", "-1"],
        ["solve", "--problem", "laplace-fd:h=2^-3", "--precond", "identity", "--tol", "nan"],
        ["solve", "--problem", "laplace-fd:h=2^-3", "--precond", "identity", "--tol", "-1"],
        ["validate", "--sizes", "1"],
        ["validate", "--seeds", "1", "--sizes", "6", "--samples", "0"],
        ["validate", "--seeds", "1", "--sizes", "6", "--samples", "-2"],
        ["validate", "--seeds", "0"],
        ["phi", "--problem", "laplace-fd:h=0", "--precond", "identity"],
        ["phi", "--problem", "laplace-fem:h=0", "--precond", "identity"],
        ["phi", "--problem", "laplace-fd:h=1/0", "--precond", "identity"],
        ["phi", "--problem", "laplace-fd:h=2^99999", "--precond", "identity"],
        ["phi", "--problem", "laplace-fd:h=2^-3", "--precond", "ddm:H=0"],
        ["phi", "--problem", "laplace-fd:h=2^-3", "--precond", "ddm:H=abc"],
        ["phi", "--problem", "laplace-fd:h=2^-3", "--precond", "ddm:H=2^-2,overlap=abc"],
        ["phi", "--problem", "laplace-fd:h=2^-3", "--precond", "ddm:H=2^-1,overlp=0.25"],
        ["phi", "--problem", "laplace-fd:h=2^-3", "--precond", "identity:foo=1"],
        ["phi", "--problem", "laplace-fd:h=2^-3,hh=3", "--precond", "identity"],
        ["phi", "--problem", "kernel-laplace:n=abc", "--precond", "identity"],
        ["phi", "--problem", "kernel-laplace:n=16,tau=x", "--precond", "identity"],
        ["phi", "--problem", "laplace-fd:h=2^-3,h=2^-2", "--precond", "identity"],
        ["phi", "--problem", "laplace-fd:h=2^-3", "--precond", "ddm:H=2^-1,H=2^-2"],
        ["solve", "--problem", "laplace-fd:h=2^-3", "--precond", "identity", "--step", "const:abc"],
        ["solve", "--problem", "laplace-fd:h=2^-3", "--precond", "identity", "--step", "fixed:abc"],
        ["table", "--name", "nope"],
        ["phi", "--problem", f"kernel-laplace:n={10**30}", "--precond", "identity"],
        ["phi", "--problem", "laplace-fd:h=2^-1000", "--precond", "identity"],
        ["phi", "--problem", "laplace-fem:h=2^-40", "--precond", "identity"],
        ["solve", "--problem", "laplace-fd:h=2^-3", "--precond", "identity", "--step", "bogus"],
        ["phi", "--problem", "laplace-fd:h", "--precond", "identity"],
        ["phi", "--problem", "laplace-fem:h=1e308", "--precond", "identity"],
        ["solve", "--problem", "laplace-fem:h=2^1000", "--precond", "identity"],
    ],
    ids=[
        "prob-trials-0", "prob-trials-negative", "table-trials-0", "solve-maxit-negative",
        "solve-tol-nan", "solve-tol-negative",
        "validate-size-1", "validate-samples-0", "validate-samples-negative", "validate-seeds-0",
        "fd-h-0", "fem-h-0", "fd-h-1-over-0", "fd-h-overflow", "ddm-H-0",
        "ddm-H-not-a-number", "ddm-overlap-not-a-number", "ddm-unread-key",
        "identity-unread-key", "fd-unread-key", "kernel-n-not-an-integer",
        "kernel-tau-not-a-number", "fd-repeated-key", "ddm-repeated-key",
        "step-const-not-a-number", "step-fixed-not-a-number", "table-unknown-name",
        "kernel-n-beyond-index-range", "fd-h-beyond-index-range", "fem-h-beyond-index-range",
        "step-unknown", "fd-item-without-equals", "fem-h-beyond-float-square",
        "solve-fem-h-beyond-float-square",
    ],
)
def test_out_of_range_count_exits_1_with_one_error_line(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize(
    "name, config",
    [
        ("prob-kernel", [1]),
        ("prob-kernel", {"n": 24}),
        ("phi-ddm-fixedH", {"h": 0.3}),
        ("prob-kernel", {"trials": "x"}),
        ("phi-ddm-fixedH", {"H": "x"}),
        ("prob-ddm", {"H": "x"}),
        ("phi-ddm-fixedH", {"h": ["x"]}),
        ("prob-ddm", {"h": ["x"]}),
        ("phi-ddm-fixedH", {"H": 0}),
        ("phi-ddm-fixedh", {"H": [-0.25]}),
        ("phi-ddm-fixedh", {"h": True}),
        ("prob-ddm", {"h": [float("inf")]}),
        ("prob-kernel", {"n": [24.0]}),
        ("prob-kernel", {"n": [True]}),
        ("prob-kernel", {"kernel_seed": "3"}),
        ("prob-kernel", {"kernel_seed": False}),
        ("prob-kernel", {"H": 0.25}),
        ("phi-ddm-fixedH", {"trials": 10}),
        ("phi-ddm-fixedh", {"h": 10**400}),
        ("prob-kernel", {"n": [10**400]}),
        ("prob-kernel", {"n": [10**30]}),
        ("prob-kernel", {"n": []}),
        ("phi-ddm-fixedh", {"h": 1e300}),
        ("prob-ddm", {"h": [1e300]}),
    ],
    ids=[
        "top-level-list", "n-not-a-list", "h-not-a-list", "trials-not-an-integer",
        "H-a-string", "prob-ddm-H-a-string", "h-entry-a-string", "prob-ddm-h-entry-a-string",
        "H-zero", "H-entry-negative", "h-a-bool", "h-entry-infinite", "n-entry-a-float",
        "n-entry-a-bool", "kernel-seed-a-string", "kernel-seed-a-bool",
        "key-not-read-by-prob-kernel", "key-not-read-by-phi-table", "h-beyond-float-range",
        "n-entry-beyond-float-range", "n-entry-beyond-index-range", "n-empty",
        "h-beyond-float-square", "prob-ddm-h-entry-beyond-float-square",
    ],
)
def test_badly_typed_table_config_exits_1_with_one_error_line(name, config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["table", "--name", name, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    if isinstance(config, dict):  # the line names the key and the table
        [key] = config
        assert repr(key) in lines[0] and name in lines[0], lines[0]


def test_table_prob_kernel_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": [24], "trials": 10, "kernel_seed": 3}))
    out = tmp_path / "t.csv"
    code = main(
        ["table", "--name", "prob-kernel", "--config", str(cfg), "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,successes_new")
    assert lines[1].split(",")[0] == "24"


def test_table_phi_ddm_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"H": 0.25, "h": [0.0625]}))
    out = tmp_path / "t.csv"
    code = main(["table", "--name", "phi-ddm-fixedH", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert abs(float(row[2]) - 0.1961) <= 0.06  # cos2_phi at h=2^-4, H=2^-2


def _table_cells(tmp_path, name, cfg, seed):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "t.csv"
    argv = ["table", "--name", name, "--config", str(path), "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    header, *rows = (line.split(",") for line in out.read_text().splitlines())
    return [dict(zip(header, row)) for row in rows]


@pytest.mark.parametrize(
    "name, cfg, builds",
    [
        ("phi-ddm-fixedH", {"h": [0.125, 0.125, 0.0625]}, 2),
        ("phi-ddm-fixedh", {"h": 0.125, "H": [0.5, 0.25]}, 1),
        ("prob-ddm", {"h": [0.125, 0.0625, 0.125], "trials": 5}, 3),
        ("prob-kernel", {"n": [24, 24, 32], "trials": 5}, 2),
    ],
)
def test_table_builds_one_problem_per_run_of_equal_cells(monkeypatch, tmp_path, name, cfg, builds):
    # a cell on the previous cell's problem recipe reuses that problem and
    # measures what a cell with its own build measures
    recipes = []

    def counted(recipe):
        recipes.append(recipe)
        return build_problem(recipe)

    monkeypatch.setattr(cli, "build_problem", counted)
    cells = _table_cells(tmp_path, name, cfg, 0)
    assert len(recipes) == builds, recipes
    [key] = [k for k, v in cfg.items() if isinstance(v, list)]
    for cell in cells:
        cell.pop("runtime_s")
    for a in cells:
        for b in cells:
            assert (a == b) == (a[key] == b[key]), (a, b)


def _prob_fields(tmp_path, problem, recipe, sampler, trials, seed):
    """Successes and fractions of both conditions from the prob command."""
    out = tmp_path / "prob.csv"
    argv = [
        "prob", "--problem", problem, "--precond", recipe, "--sampler", sampler,
        "--trials", str(trials), "--seed", str(seed), "--out", str(out),
    ]
    assert main(argv) == 0
    (_, new, _, p_new), (_, classic, _, p_classic) = (
        line.split(",") for line in out.read_text().splitlines()[1:]
    )
    return {"successes_new": new, "p_new": p_new, "successes_classic": classic, "p_classic": p_classic}


def test_table_phi_cell_matches_phi(tmp_path, capsys):
    # each cell of every table makes the phi or prob command's measurement
    # for its pair and seed, bit for bit
    phi_tables = [
        ("phi-ddm-fixedH", {"h": [0.125, 0.0625]}),
        ("phi-ddm-fixedh", {"h": 0.125, "H": [0.5, 0.25]}),
    ]
    for name, cfg in phi_tables:
        cells = _table_cells(tmp_path, name, cfg, 0)
        assert len(cells) == 2
        for cell in cells:
            payload = phi_json(
                tmp_path, f"laplace-fem:h={cell['h']}", f"ddm:H={cell['H']},overlap=0.5"
            )
            for key in ("cos2_phi", "one_minus_inv_kappa", "chi"):
                assert float(cell[key]) == payload[key], (name, cell)
    seed = 3
    [cell] = _table_cells(tmp_path, "prob-ddm", {"h": [0.125], "trials": 10}, seed)
    expected = _prob_fields(
        tmp_path, "laplace-fem:h=0.125", "ddm:H=0.25,overlap=0.5", "smooth", 10,
        linalg.spawn_seed(seed, linalg.hash_label("prob-ddm:0.125")),
    )
    assert {key: cell[key] for key in expected} == expected
    assert (cell["h"], cell["H"], cell["trials"]) == ("0.125", "0.25", "10")
    cfg = {"n": [24], "trials": 10, "kernel_seed": 3}
    [cell] = _table_cells(tmp_path, "prob-kernel", cfg, seed)
    expected = _prob_fields(
        tmp_path, "kernel-laplace:n=24,seed=3", "mp-chol", "gaussian", 10,
        linalg.spawn_seed(seed, linalg.hash_label("prob-kernel:24")),
    )
    assert {key: cell[key] for key in expected} == expected
    assert (cell["n"], cell["trials"]) == ("24", "10")
    capsys.readouterr()
